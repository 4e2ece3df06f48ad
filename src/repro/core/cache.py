"""Memoization of the analysis hot paths (MINPROCS sizing, compiled DAGs).

The experiment stack re-evaluates the same pure functions over and over:
MINPROCS cluster sizing of a DAG (every re-analysis of a system replays the
same List Scheduling search) and the flat compilation that search runs on.
Both are pure functions of their arguments, so this module provides a pair
of bounded LRU caches:

``minprocs``
    keyed by ``(DAG.digest(), D, order)`` -- one entry per analysed DAG task,
    storing either the minimal fitting cluster (reusable for any processor
    budget at or above it, since the first fitting ``mu`` does not depend on
    the cap) or the largest budget known to be insufficient;
``compiled``
    keyed by ``DAG.digest()`` -- the flat :class:`~repro.core.kernels.CompiledDAG`
    artifact, so digest-equal DAG instances (e.g. rebuilt from a journal or
    shipped to a worker process) share one compilation.

Like :mod:`repro.obs.metrics`, the caches are **disabled by default** and
hot paths guard every lookup with a plain attribute check, so the cost with
caching off is one attribute load and a branch.  The parallel experiment
engine enables them in its worker processes, ``fedcons-experiments`` enables
them unless ``--no-cache`` is given, and benchmarks/tests enable them via
:func:`caching`.

Hit/miss/eviction counts are always tracked on the cache objects (cheap int
adds) and additionally mirrored into the global
:class:`~repro.obs.metrics.MetricsRegistry` (``cache.minprocs.hits``, ...)
whenever metrics collection is on, so worker-side cache behaviour survives
the parent's metrics merge.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.errors import AnalysisError
from repro.obs.metrics import metrics as _metrics

__all__ = ["MISSING", "LRUCache", "AnalysisCaches", "caches", "caching"]

#: Sentinel returned by :meth:`LRUCache.get` on a miss.
MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction and counters."""

    __slots__ = ("name", "maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise AnalysisError(f"cache maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Any:
        """The cached value for *key*, or the :data:`MISSING` sentinel.

        Counts the lookup and refreshes the entry's recency on a hit.
        """
        value = self._data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            if _metrics.enabled:
                _metrics.incr(f"cache.{self.name}.misses")
            return MISSING
        self._data.move_to_end(key)
        self.hits += 1
        if _metrics.enabled:
            _metrics.incr(f"cache.{self.name}.hits")
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert/overwrite *key*, evicting the oldest entry when full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
            if _metrics.enabled:
                _metrics.incr(f"cache.{self.name}.evictions")

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class AnalysisCaches:
    """The process-wide pair of analysis caches plus the enable switch."""

    def __init__(self, minprocs_size: int = 4096, compiled_size: int = 4096) -> None:
        self.enabled = False
        self.minprocs = LRUCache("minprocs", minprocs_size)
        self.compiled = LRUCache("compiled", compiled_size)

    def enable(self) -> None:
        """Start serving (and filling) both caches."""
        self.enabled = True

    def disable(self) -> None:
        """Stop consulting the caches (entries are kept)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all entries of every cache."""
        self.minprocs.clear()
        self.compiled.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters of every cache."""
        for cache in (self.minprocs, self.compiled):
            cache.hits = cache.misses = cache.evictions = 0

    def stats(self) -> dict:
        """Per-cache size/hit/miss statistics (JSON-serialisable)."""
        return {
            "enabled": self.enabled,
            "minprocs": self.minprocs.stats(),
            "compiled": self.compiled.stats(),
        }


#: The process-wide caches every instrumented analysis consults.
caches = AnalysisCaches()


@contextmanager
def caching(clear: bool = True) -> Iterator[AnalysisCaches]:
    """Enable the global :data:`caches` for a scoped block.

    With ``clear=True`` (default) the block starts from empty caches.  The
    previous enabled state is restored afterwards.
    """
    was_enabled = caches.enabled
    if clear:
        caches.clear()
    caches.enable()
    try:
        yield caches
    finally:
        caches.enabled = was_enabled
