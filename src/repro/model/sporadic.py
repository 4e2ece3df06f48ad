"""The classic three-parameter sporadic task model (Mok, 1983).

A :class:`SporadicTask` releases a potentially infinite sequence of jobs; each
job needs up to ``wcet`` units of sequential execution, must finish within
``deadline`` of its release, and successive releases are separated by at least
``period``.

The paper's PARTITION phase collapses each low-density sporadic DAG task
``tau_i = (G_i, D_i, T_i)`` to the sporadic task ``(vol_i, D_i, T_i)`` because
a task confined to one processor cannot exploit its internal parallelism
(Section IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ModelError

__all__ = ["SporadicTask"]


@dataclass(frozen=True)
class SporadicTask:
    """A three-parameter sporadic task ``(C, D, T)``.

    Attributes
    ----------
    wcet:
        ``C`` -- worst-case execution time of each job (positive).
    deadline:
        ``D`` -- relative deadline (positive).
    period:
        ``T`` -- minimum inter-release separation (positive).
    name:
        Optional human-readable identifier.
    """

    wcet: float
    deadline: float
    period: float
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for label, value in (
            ("wcet", self.wcet),
            ("deadline", self.deadline),
            ("period", self.period),
        ):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ModelError(f"{label} must be a number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ModelError(f"{label} must be positive and finite, got {value!r}")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def utilization(self) -> float:
        """``u = C / T``, computed once per task (shard probes read it often)."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """``delta = C / min(D, T)``."""
        return self.wcet / min(self.deadline, self.period)

    @property
    def is_implicit_deadline(self) -> bool:
        """``D == T``."""
        return self.deadline == self.period

    @property
    def is_constrained_deadline(self) -> bool:
        """``D <= T`` (implicit-deadline tasks are also constrained)."""
        return self.deadline <= self.period

    # ------------------------------------------------------------------
    # demand bound functions
    # ------------------------------------------------------------------
    def dbf(self, t: float) -> float:
        """Exact demand bound function (Baruah, Mok & Rosier, 1990).

        The maximum cumulative execution demand of jobs of this task that
        have both release time and deadline within any interval of length
        ``t``::

            dbf(t) = max(0, floor((t - D) / T) + 1) * C
        """
        if t < self.deadline:
            return 0.0
        return (math.floor((t - self.deadline) / self.period) + 1) * self.wcet

    def dbf_approx(self, t: float) -> float:
        """The ``DBF*`` linear upper approximation (Eq. (1) of the paper)::

            DBF*(t) = 0                      if t < D
                      C + u * (t - D)        otherwise

        ``DBF*(t) >= dbf(t)`` for all ``t``, and ``DBF*(t) < 2 * dbf(t)``
        whenever ``dbf(t) > 0`` -- the property underlying the resource
        augmentation bound of the partitioning algorithm (Baruah & Fisher,
        IEEE TC 2006).
        """
        if t < self.deadline:
            return 0.0
        return self.wcet + self.utilization * (t - self.deadline)

    def rbf(self, t: float) -> float:
        """Request bound function: demand of jobs *released* in ``[0, t]``."""
        if t < 0:
            return 0.0
        return (math.floor(t / self.period) + 1) * self.wcet

    def deadlines_in(self, horizon: float) -> list[float]:
        """Absolute deadlines of a synchronous-periodic release pattern in
        ``(0, horizon]`` -- the test set for exact processor-demand analysis."""
        out: list[float] = []
        k = 0
        while True:
            d = k * self.period + self.deadline
            if d > horizon:
                break
            out.append(d)
            k += 1
        return out

    def scaled(self, speed: float) -> "SporadicTask":
        """This task as seen by processors of the given *speed*."""
        if speed <= 0:
            raise ModelError(f"speed must be positive, got {speed!r}")
        return SporadicTask(
            wcet=self.wcet / speed,
            deadline=self.deadline,
            period=self.period,
            name=self.name,
        )
