"""Demand-bound-function machinery for uniprocessor EDF.

The PARTITION phase assigns each low-density task to a shared processor that
runs preemptive uniprocessor EDF.  This module provides:

* aggregate exact ``dbf`` / approximate ``DBF*`` demand of a set of sporadic
  tasks (Eq. (1) of the paper; Baruah, Mok & Rosier 1990; Baruah & Fisher
  2006);
* the *exact* processor-demand schedulability test for EDF on one processor,
  accelerated with the standard busy-period/testing-interval bound; and
* the approximate (polynomial-time) DBF*-based test used by PARTITION's
  admission logic.

These are the substrate on which Lemma 2 of the paper (the ``3 - 1/m``
partitioning speedup) stands.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.errors import AnalysisError
from repro.core import kernels as _kernels
from repro.core.kernels import flags as _kernel_flags
from repro.model.sporadic import SporadicTask
from repro.obs.metrics import metrics as _metrics

__all__ = [
    "total_dbf",
    "total_dbf_approx",
    "edf_density_test",
    "edf_approx_test",
    "edf_exact_test",
    "minimum_speed_exact",
    "testing_interval_bound",
    "demand_breakpoints",
]

_TOL = 1e-9


def total_dbf(tasks: Iterable[SporadicTask], t: float) -> float:
    """Exact aggregate demand ``sum_i dbf(tau_i, t)``."""
    if _metrics.enabled:
        _metrics.incr("dbf_exact_evaluations")
    return sum(task.dbf(t) for task in tasks)


def total_dbf_approx(tasks: Iterable[SporadicTask], t: float) -> float:
    """Approximate aggregate demand ``sum_i DBF*(tau_i, t)``."""
    if _metrics.enabled:
        _metrics.incr("dbf_star_evaluations")
    return sum(task.dbf_approx(t) for task in tasks)


def edf_density_test(tasks: Sequence[SporadicTask]) -> bool:
    """Sufficient uniprocessor EDF test: total density at most one.

    The crudest of the three tests; used only as a comparison point in the
    partitioning ablation experiment.
    """
    return sum(t.density for t in tasks) <= 1.0 + _TOL


def edf_approx_test(tasks: Sequence[SporadicTask]) -> bool:
    """Sufficient uniprocessor EDF test based on ``DBF*``.

    A set of sporadic tasks is EDF-schedulable on a preemptive unit-speed
    processor if ``sum_i DBF*(tau_i, t) <= t`` for all ``t >= 0``.  Because
    every ``DBF*`` is piecewise linear with exactly one breakpoint (at its
    deadline) and slopes sum to ``U <= 1`` when the test can pass at all, it
    suffices to check the inequality at each task's relative deadline, plus
    the slope condition ``U <= 1``.
    """
    if sum(t.utilization for t in tasks) > 1.0 + _TOL:
        return False
    for point in {t.deadline for t in tasks}:
        if total_dbf_approx(tasks, point) > point + _TOL:
            return False
    return True


def testing_interval_bound(tasks: Sequence[SporadicTask]) -> float:
    """Upper bound on the interval the exact EDF test must examine.

    For a constrained- or arbitrary-deadline sporadic set with total
    utilization ``U < 1``, if ``dbf`` exceeds supply anywhere it does so
    before::

        L = max( max_i D_i,  (sum_i (T_i - D_i) * u_i) / (1 - U) )

    (Baruah, Mok & Rosier 1990).  For ``U >= 1`` the set is trivially
    infeasible on one processor unless ``U == 1`` and the demand pattern is
    exactly periodic; we return the hyperperiod-style fallback
    ``max_i D_i + 2 * lcm-ish`` only when ``U == 1`` with rational periods --
    in practice the callers reject ``U > 1 - eps`` up front.
    """
    if not tasks:
        return 0.0
    utilization = sum(t.utilization for t in tasks)
    max_deadline = max(t.deadline for t in tasks)
    if utilization >= 1.0 - 1e-12:
        # Degenerate: fall back to a generous multiple of the largest period.
        # The exact test's callers treat U > 1 as an immediate failure.
        return max_deadline + 2.0 * sum(t.period for t in tasks)
    slack_term = sum((t.period - t.deadline) * t.utilization for t in tasks)
    return max(max_deadline, slack_term / (1.0 - utilization))


def demand_breakpoints(
    tasks: Sequence[SporadicTask], horizon: float
) -> list[float]:
    """All absolute deadlines in ``(0, horizon]`` of the synchronous pattern.

    The exact processor-demand criterion only needs to be checked at these
    points, where the step function ``sum_i dbf(t)`` changes value.
    """
    points: set[float] = set()
    for task in tasks:
        points.update(task.deadlines_in(horizon))
    return sorted(points)


def edf_exact_test(
    tasks: Sequence[SporadicTask], horizon: float | None = None
) -> bool:
    """Exact uniprocessor EDF schedulability (processor-demand criterion).

    A sporadic task set is EDF-schedulable on one preemptive unit-speed
    processor iff ``U <= 1`` and ``sum_i dbf(tau_i, t) <= t`` for every
    ``t`` in the testing interval.  This test is exact but pseudo-polynomial;
    PARTITION uses :func:`edf_approx_test` instead, and the experiments use
    this as the ground-truth oracle.

    With the compiled kernels enabled (the default) the interval is decided
    by QPA (:func:`repro.core.kernels.qpa_exact_test`, Zhang & Burns 2009)
    instead of scanning every breakpoint; the verdicts are identical (the
    equivalence argument is in the QPA docstring and
    ``docs/PERFORMANCE.md``).

    Parameters
    ----------
    tasks:
        The task set sharing the processor.
    horizon:
        Optional override of the testing interval (useful in tests).

    Raises
    ------
    AnalysisError
        If *horizon* is negative.
    """
    if not tasks:
        return True
    if sum(t.utilization for t in tasks) > 1.0 + _TOL:
        return False
    bound = testing_interval_bound(tasks) if horizon is None else horizon
    if bound < 0:
        raise AnalysisError(f"testing horizon must be >= 0, got {bound}")
    if _kernel_flags.enabled:
        return _kernels.qpa_exact_test(tasks, bound, total_dbf, _TOL)
    for point in demand_breakpoints(tasks, bound):
        if total_dbf(tasks, point) > point + _TOL:
            return False
    return True


def minimum_speed_exact(
    tasks: Sequence[SporadicTask], tolerance: float = 1e-6
) -> float:
    """The minimum processor speed at which *tasks* are EDF-schedulable.

    EDF on one processor is speed-monotone (demand scales as ``1/s``), so
    this binary-searches the smallest speed for which the exact
    processor-demand test passes.  The bracket is ``[U, delta_sum]``: speed
    below the utilization is never enough, and speed equal to the total
    density always suffices (``dbf(t) <= delta_sum * t``).
    """
    if not tasks:
        return 0.0
    low = sum(t.utilization for t in tasks)
    high = sum(t.density for t in tasks)
    if high <= 0:
        return 0.0
    if edf_exact_test([t.scaled(max(low, 1e-12)) for t in tasks]):
        return low
    while high - low > tolerance * max(1.0, high):
        mid = 0.5 * (low + high)
        if edf_exact_test([t.scaled(mid) for t in tasks]):
            high = mid
        else:
            low = mid
    return high
