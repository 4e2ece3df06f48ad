"""Tests for repro.parallel: seed derivation, the process-pool grid engine,
the analysis caches, and the serial-vs-parallel determinism oracle.

The load-bearing contract under test: for any experiment, ``--jobs N``
produces tables *equal* to ``--jobs 1`` (same rows, bit-identical floats),
and the same root seed reproduces the same tables across runs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.cache import MISSING, AnalysisCaches, LRUCache, caches, caching
from repro.core.minprocs import minprocs
from repro.errors import AnalysisError
from repro.experiments.harness import acceptance_sweep
from repro.experiments.runner import run_experiment
from repro.generation.tasksets import SystemConfig
from repro.model.dag import DAG
from repro.model.task import SporadicDAGTask
from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.engine import GridSpec, effective_jobs, run_grid
from repro.parallel.seeds import (
    derive_seed,
    experiment_entropy,
    sample_rng,
    seed_sequence,
)

# Workers resolve this by name ("test_parallel:..."), which works because
# pytest puts tests/ on sys.path and the pool inherits the parent's modules.


def _sum_evaluator(common, point, rng, point_index, sample_index):
    """Deterministic arithmetic plus one draw from the sample's own stream."""
    return common + point * 100 + point_index + sample_index + float(
        rng.integers(0, 1000)
    )


def _coords_evaluator(common, point, rng, point_index, sample_index):
    return (point, point_index, sample_index)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


class TestSeeds:
    def test_experiment_entropy_deterministic(self):
        assert experiment_entropy("EXP-A") == experiment_entropy("EXP-A")

    def test_experiment_entropy_separates_ids(self):
        assert experiment_entropy("EXP-A") != experiment_entropy("EXP-B")

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "X", 2, 3) == derive_seed(7, "X", 2, 3)

    @pytest.mark.parametrize(
        "other",
        [(8, "X", 2, 3), (7, "Y", 2, 3), (7, "X", 1, 3), (7, "X", 2, 4)],
    )
    def test_derive_seed_sensitive_to_every_coordinate(self, other):
        assert derive_seed(7, "X", 2, 3) != derive_seed(*other)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(AnalysisError, match=">= 0"):
            seed_sequence(0, "X", -1, 0)
        with pytest.raises(AnalysisError, match=">= 0"):
            seed_sequence(0, "X", 0, -1)

    def test_sample_rng_streams_independent(self):
        a = sample_rng(0, "X", 0, 0).integers(0, 2**31, size=8)
        b = sample_rng(0, "X", 0, 1).integers(0, 2**31, size=8)
        assert not np.array_equal(a, b)

    def test_sample_rng_reproducible(self):
        a = sample_rng(42, "X", 3, 5).integers(0, 2**31, size=8)
        b = sample_rng(42, "X", 3, 5).integers(0, 2**31, size=8)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# grid engine
# ---------------------------------------------------------------------------


def _spec(points=(0.1, 0.2, 0.3), samples=4, seed=0, common=10.0):
    return GridSpec(
        evaluator="test_parallel:_sum_evaluator",
        exp_id="TEST",
        points=tuple(points),
        samples=samples,
        root_seed=seed,
        common=common,
    )


class TestEffectiveJobs:
    def test_explicit(self):
        assert effective_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert effective_jobs(0) == cores
        assert effective_jobs(None) == cores

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError, match="jobs"):
            effective_jobs(-2)


class TestRunGrid:
    def test_shape_and_order(self):
        out = run_grid(
            GridSpec(
                evaluator="test_parallel:_coords_evaluator",
                exp_id="TEST",
                points=("a", "b"),
                samples=3,
                root_seed=0,
            )
        )
        assert out == [
            [("a", 0, 0), ("a", 0, 1), ("a", 0, 2)],
            [("b", 1, 0), ("b", 1, 1), ("b", 1, 2)],
        ]

    def test_empty_points(self):
        assert run_grid(_spec(points=())) == []

    def test_invalid_samples(self):
        with pytest.raises(AnalysisError, match="samples"):
            run_grid(_spec(samples=0))

    def test_invalid_chunk_size(self):
        with pytest.raises(AnalysisError, match="chunk_size"):
            run_grid(_spec(), jobs=2, chunk_size=0)

    def test_bad_evaluator_path(self):
        spec = GridSpec(
            evaluator="no-colon", exp_id="T", points=(1,), samples=1, root_seed=0
        )
        with pytest.raises(AnalysisError, match="module:function"):
            run_grid(spec)

    def test_missing_evaluator_function(self):
        spec = GridSpec(
            evaluator="test_parallel:_nope",
            exp_id="T",
            points=(1,),
            samples=1,
            root_seed=0,
        )
        with pytest.raises(AnalysisError, match="no evaluator"):
            run_grid(spec)

    def test_parallel_equals_serial(self):
        spec = _spec(samples=5)
        serial = run_grid(spec, jobs=1)
        parallel = run_grid(spec, jobs=2)
        assert parallel == serial

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, None])
    def test_chunking_invariance(self, chunk_size):
        spec = _spec(samples=5)
        assert run_grid(spec, jobs=2, chunk_size=chunk_size) == run_grid(
            spec, jobs=1
        )

    def test_worker_metrics_merged(self):
        spec = _spec(points=(0.1, 0.2), samples=3)
        with collecting() as m:
            run_grid(spec, jobs=2, chunk_size=2)
        assert m.counter("parallel.samples_evaluated") == 6
        assert m.counter("parallel.chunks_dispatched") == 3
        assert m.timer("parallel.chunk_seconds").count == 3


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache("t", 4)
        assert cache.get("k") is MISSING
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache("t", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the eviction victim
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = LRUCache("t", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_clear_keeps_counters(self):
        cache = LRUCache("t", 2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_invalid_maxsize(self):
        with pytest.raises(AnalysisError, match="maxsize"):
            LRUCache("t", 0)

    def test_stats(self):
        cache = LRUCache("t", 8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 8,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_hit_rate_empty(self):
        assert LRUCache("t", 2).hit_rate == 0.0


class TestAnalysisCaches:
    def test_disabled_by_default(self):
        assert AnalysisCaches().enabled is False
        # The process-global instance starts disabled too (tests rely on it).
        assert caches.enabled is False

    def test_caching_context_restores_state(self):
        assert caches.enabled is False
        with caching() as active:
            assert active is caches
            assert caches.enabled is True
        assert caches.enabled is False

    def test_caching_context_clears_by_default(self):
        with caching():
            caches.minprocs.put(("x",), 1.0)
            assert len(caches.minprocs) == 1
        with caching():
            assert caches.minprocs.get(("x",)) is MISSING

    def test_reset_counters(self):
        local = AnalysisCaches()
        local.minprocs.get("miss")
        local.reset_counters()
        assert local.minprocs.misses == 0

    def test_stats_shape(self):
        stats = AnalysisCaches().stats()
        assert set(stats) == {"enabled", "minprocs", "compiled"}

    def test_metrics_mirror(self):
        task = SporadicDAGTask(DAG({0: 1.0, 1: 1.0}, []), 2.0, 3.0, name="pair")
        with caching(), collecting() as m:
            minprocs(task, 4)
            minprocs(task, 4)
        assert m.counter("cache.minprocs.misses") == 1
        assert m.counter("cache.minprocs.hits") == 1


# ---------------------------------------------------------------------------
# metrics merging (worker -> parent aggregation)
# ---------------------------------------------------------------------------


class TestMergeSnapshot:
    def test_counters_sum(self):
        parent = MetricsRegistry(enabled=True)
        parent.incr("x", 2)
        parent.merge_snapshot({"counters": {"x": 3, "y": 1}, "timers": {}})
        assert parent.counter("x") == 5
        assert parent.counter("y") == 1

    def test_timers_merge(self):
        parent = MetricsRegistry(enabled=True)
        parent.record_time("t", 1.0)
        parent.merge_snapshot(
            {
                "counters": {},
                "timers": {
                    "t": {
                        "count": 2,
                        "total_seconds": 3.0,
                        "mean_seconds": 1.5,
                        "max_seconds": 2.5,
                    }
                },
            }
        )
        stats = parent.timer("t")
        assert stats.count == 3
        assert stats.total == pytest.approx(4.0)
        assert stats.max == pytest.approx(2.5)
        assert stats.mean == pytest.approx(4.0 / 3)

    def test_merge_works_while_disabled(self):
        parent = MetricsRegistry(enabled=False)
        parent.merge_snapshot({"counters": {"x": 1}, "timers": {}})
        assert parent.counter("x") == 1

    def test_roundtrip_through_snapshot(self):
        worker = MetricsRegistry(enabled=True)
        worker.incr("dbf_star_evaluations", 7)
        worker.record_time("parallel.chunk_seconds", 0.25)
        parent = MetricsRegistry(enabled=True)
        parent.merge_snapshot(worker.snapshot())
        assert parent.snapshot() == worker.snapshot()


# ---------------------------------------------------------------------------
# DAG digest (the MINPROCS cache key)
# ---------------------------------------------------------------------------


class TestDagDigest:
    def test_stable_and_repeatable(self):
        dag = DAG({0: 1, 1: 2}, [(0, 1)])
        assert dag.digest() == dag.digest()
        assert dag.digest() == DAG({0: 1, 1: 2}, [(0, 1)]).digest()

    def test_sensitive_to_wcets(self):
        a = DAG({0: 1, 1: 2}, [(0, 1)])
        b = DAG({0: 1, 1: 3}, [(0, 1)])
        assert a.digest() != b.digest()

    def test_sensitive_to_edges(self):
        a = DAG({0: 1, 1: 2}, [(0, 1)])
        b = DAG({0: 1, 1: 2}, [])
        assert a.digest() != b.digest()

    def test_edge_order_irrelevant(self):
        a = DAG({0: 1, 1: 1, 2: 1}, [(0, 1), (0, 2)])
        b = DAG({0: 1, 1: 1, 2: 1}, [(0, 2), (0, 1)])
        assert a.digest() == b.digest()


# ---------------------------------------------------------------------------
# determinism oracle: serial == parallel, bit for bit
# ---------------------------------------------------------------------------


def _table_key(table):
    return (table.title, tuple(table.columns), tuple(map(tuple, table.rows)))


class TestDeterminismOracle:
    def test_sweep_parallel_equals_serial(self):
        cfg = SystemConfig(tasks=6, processors=4, max_vertices=10)
        serial = acceptance_sweep(
            cfg, [0.3, 0.6], ["FEDCONS", "PARTITIONED"], samples=6, seed=5,
            jobs=1, exp_id="oracle",
        )
        parallel = acceptance_sweep(
            cfg, [0.3, 0.6], ["FEDCONS", "PARTITIONED"], samples=6, seed=5,
            jobs=2, chunk_size=2, exp_id="oracle",
        )
        assert parallel == serial

    def test_sweep_cache_does_not_change_results(self):
        cfg = SystemConfig(tasks=6, processors=4, max_vertices=10)
        plain = acceptance_sweep(
            cfg, [0.4], ["FEDCONS"], samples=6, seed=3, exp_id="oracle"
        )
        with caching():
            cached = acceptance_sweep(
                cfg, [0.4], ["FEDCONS"], samples=6, seed=3, exp_id="oracle"
            )
        assert cached == plain

    def test_exp_a_quick_jobs4_identical(self):
        serial = run_experiment("EXP-A", samples=4, seed=0, quick=True, jobs=1)
        parallel = run_experiment("EXP-A", samples=4, seed=0, quick=True, jobs=4)
        assert [_table_key(t) for t in parallel] == [
            _table_key(t) for t in serial
        ]

    def test_thm1_quick_jobs4_identical(self):
        serial = run_experiment("THM1", samples=4, seed=1, quick=True, jobs=1)
        parallel = run_experiment("THM1", samples=4, seed=1, quick=True, jobs=4)
        assert [_table_key(t) for t in parallel] == [
            _table_key(t) for t in serial
        ]

    def test_same_root_seed_reproduces_across_runs(self):
        first = run_experiment("EXP-A", samples=3, seed=9, quick=True, jobs=1)
        second = run_experiment("EXP-A", samples=3, seed=9, quick=True, jobs=1)
        assert [_table_key(t) for t in first] == [_table_key(t) for t in second]

    def test_different_seed_changes_something(self):
        a = run_experiment("EXP-A", samples=5, seed=0, quick=True, jobs=1)
        b = run_experiment("EXP-A", samples=5, seed=12345, quick=True, jobs=1)
        # Achieved-utilization columns come from different random systems.
        assert [_table_key(t) for t in a] != [_table_key(t) for t in b]
