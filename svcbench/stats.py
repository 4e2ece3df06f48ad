"""Small order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Percentiles a latency report may climb to, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``0 < q <= 1``); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return quantile(values, 0.5)


@dataclass(frozen=True)
class Tail:
    """The highest percentile a sample supports."""

    percentile: float
    value: float
    count: int  # samples in total
    beyond: int  # samples above the percentile's rank


def tail(values) -> Tail | None:
    """The highest :data:`LADDER` percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` if even the median
    lacks them."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = Tail(p, ordered[rank - 1], n, n - rank)
    return best
