"""Tier-2 kernel guarantees: bracketed mu-search, batched shard probes,
the kernel switch, and the multi-core plumbing.

Everything here enforces the same contract as :mod:`tests.test_kernels`:
the new evaluation strategies are *pure speedups* -- identical processor
counts, identical canonical ``attempts``, identical schedules, identical
admission decisions and shard ledgers, down to the last float.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.online.controller as controller_mod
import repro.parallel.engine as engine_mod
from repro.core import kernels
from repro.core.cache import caching
from repro.core.kernels import KernelFlags, kernel_backend, use_kernels
from repro.core.shard import ShardProbeMatrix, ShardState
from repro.errors import AnalysisError
from repro.generation.adversarial import chen_gadget
from repro.generation.pegasus import montage
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.obs.metrics import collecting
from repro.online.controller import AdmissionController
from repro.parallel import available_cpus

from strategies import dag_tasks, random_sporadics

minprocs_mod = __import__("repro.core.minprocs", fromlist=["minprocs"])
minprocs = minprocs_mod.minprocs


def _staircase_task(
    chain: int = 10, fringe: int = 60, name: str = "staircase"
) -> SporadicDAGTask:
    """Serial chain feeding a wide fringe, deadline just past the span.

    All fringe vertices depend on the chain's last node and the deadline
    leaves room for exactly one fringe round, so the minimal cluster is
    ``fringe`` processors while the density lower bound stays tiny -- the
    widest mu range a linear scan can be made to walk.
    """
    wcets: dict[int, float] = {i: 4.0 for i in range(chain)}
    edges = [(i, i + 1) for i in range(chain - 1)]
    for j in range(fringe):
        v = chain + j
        wcets[v] = 0.5
        edges.append((chain - 1, v))
    dag = DAG(wcets, edges)
    deadline = chain * 4.0 + 0.5 + 0.05
    return SporadicDAGTask(dag, deadline, deadline * 2.0, name=name)


def _result_tuple(result):
    if result is None:
        return None
    return (result.processors, result.attempts, result.schedule.slots)


def _run_both_strategies(task, budget, order="longest_path"):
    search = minprocs_mod._minprocs_search
    return search(task, budget, order, linear=True), search(task, budget, order)


class TestMuSearchEquivalence:
    """Bracketed mu-search == Figure 3 linear scan, kernels on and off."""

    def test_staircase_identical_with_fewer_ls_runs(self):
        task = _staircase_task()
        with use_kernels(True):
            linear, bisect = _run_both_strategies(task, 1024)
        assert linear is not None
        assert _result_tuple(bisect) == _result_tuple(linear)
        # The linear scan probed every mu in the range; the bracket must
        # answer the same thing from logarithmically fewer LS runs.
        assert linear.ls_runs == linear.attempts
        assert linear.attempts > 16
        assert bisect.ls_runs < linear.ls_runs

    def test_staircase_identical_without_kernels(self):
        # Kernels off is the literal Figure 3 scan over list_schedule; the
        # kernels' bracketed search must land on the same cluster.
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(False):
            reference = minprocs(task, 256)
        with use_kernels(True):
            bisect = minprocs(task, 256)
        assert reference is not None
        assert _result_tuple(bisect) == _result_tuple(reference)
        assert reference.ls_runs == reference.attempts
        assert bisect.ls_runs < reference.ls_runs

    @settings(max_examples=30, deadline=None)
    @given(task=dag_tasks(), budget=st.integers(min_value=1, max_value=64))
    def test_random_tasks_identical(self, task, budget):
        for enabled in (True, False):
            with use_kernels(enabled):
                linear, bisect = _run_both_strategies(task, budget)
            assert _result_tuple(bisect) == _result_tuple(linear)

    def test_pegasus_montage_identical(self):
        rng = np.random.default_rng(7)
        for i, projections in enumerate((3, 6, 9)):
            dag = montage(projections, rng)
            span = dag.longest_chain_length
            task = SporadicDAGTask(
                dag, span * 1.05, span * 2.0, name=f"montage{i}"
            )
            with use_kernels(True):
                linear, bisect = _run_both_strategies(task, 256)
            assert _result_tuple(bisect) == _result_tuple(linear)

    def test_chen_gadget_identical(self):
        for k in (2, 3):
            instance = chen_gadget(k)
            for task in instance.system:
                with use_kernels(True):
                    linear, bisect = _run_both_strategies(
                        task, instance.processors
                    )
                assert _result_tuple(bisect) == _result_tuple(linear)

    def test_small_range_degenerates_to_linear(self):
        # available - start + 1 < BISECT_MIN_RANGE takes the Figure 3 scan
        # verbatim even with the kernels on: every probe actually runs.
        task = _staircase_task(chain=4, fringe=8, name="small")
        with use_kernels(True):
            result = minprocs(task, 8)
        assert result is not None
        assert result.processors == 8
        assert result.ls_runs == result.attempts

    def test_attempts_canonical_ls_runs_zero_on_cache_hit(self):
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(True), caching():
            first = minprocs(task, 256)
            cached = minprocs(task, 256)
        assert first.ls_runs > 0
        assert cached.ls_runs == 0
        assert (cached.processors, cached.attempts) == (
            first.processors, first.attempts,
        )
        assert cached.schedule.slots == first.schedule.slots


class TestAnomalyFallback:
    """A non-monotone makespan pair among the observed probes must force
    the verbatim Figure 3 linear replay."""

    def test_injected_anomaly_falls_back_to_linear(self, monkeypatch):
        task = _staircase_task(chain=6, fringe=24)
        with use_kernels(True):
            reference, _ = _run_both_strategies(task, 256)
        assert reference is not None

        real_ls_run = kernels.ls_run
        seen: list[tuple[int, float]] = []

        def warped(compiled, processors, prio):
            makespan, payload = real_ls_run(compiled, processors, prio)
            if len(seen) == 0:
                seen.append((processors, makespan))
            elif len(seen) == 1 and processors != seen[0][0]:
                # Report a makespan *increase* on the second distinct mu --
                # the Graham anomaly shape the guard must catch.  The probe
                # stays non-fitting (it only grows), so the verdict stream
                # the linear replay sees is unchanged.
                makespan = max(makespan, seen[0][1] + 1.0)
                seen.append((processors, makespan))
            return makespan, payload

        monkeypatch.setattr(kernels, "ls_run", warped)
        with use_kernels(True), collecting() as m:
            result = minprocs(task, 256)
        assert m.counter("minprocs_anomaly_fallbacks") == 1
        # The fallback answers exactly what the clean linear scan answers.
        assert (result.processors, result.attempts) == (
            reference.processors, reference.attempts,
        )
        assert result.schedule.slots == reference.schedule.slots


class TestShardProbeMatrix:
    """Matrix probes == scalar ``fits_all_points``, cell for cell."""

    def _shards(self, seed: int, count: int = 6):
        rng = np.random.default_rng(seed)
        shards = []
        for _ in range(count):
            shard = ShardState()
            for rank, sporadic in enumerate(
                random_sporadics(rng, int(rng.integers(0, 40)))
            ):
                shard.add(sporadic, rank)
            shards.append(shard)
        return shards

    def _candidates(self, seed: int, count: int = 40):
        rng = np.random.default_rng(seed + 1000)
        out = list(random_sporadics(rng, count))
        # Edge candidates: deadline below every stored point, and far above.
        out.append(SporadicTask(wcet=0.01, deadline=0.02, period=1e6))
        out.append(SporadicTask(wcet=0.01, deadline=1e5, period=1e6))
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_probe_matches_scalar(self, seed):
        shards = self._shards(seed)
        with use_kernels(True):
            matrix = ShardProbeMatrix(shards)
            for task in self._candidates(seed):
                verdicts = matrix.probe_many([task])[0]
                expected = [s.fits_all_points(task) for s in shards]
                assert verdicts.tolist() == expected

    def test_probe_many_matches_rows(self):
        shards = self._shards(5)
        tasks = self._candidates(5)
        with use_kernels(True):
            matrix = ShardProbeMatrix(shards)
            block = matrix.probe_many(tasks)
            for i, task in enumerate(tasks):
                assert block[i].tolist() == matrix.probe_many([task])[0].tolist()

    def test_probe_column_matches(self):
        shards = self._shards(6)
        tasks = self._candidates(6, count=12)
        with use_kernels(True):
            matrix = ShardProbeMatrix(shards)
            block = matrix.probe_many(tasks)
            for k in range(len(shards)):
                column = block[:, k]
                expected = [shards[k].fits_all_points(t) for t in tasks]
                assert column.tolist() == expected

    def test_empty_shard_and_duplicate_deadlines(self):
        crowded = ShardState()
        for rank in range(6):
            crowded.add(
                SporadicTask(wcet=0.5, deadline=10.0, period=40.0), rank
            )
        empty = ShardState()
        shards = [crowded, empty]
        with use_kernels(True):
            matrix = ShardProbeMatrix(shards)
            for task in self._candidates(9, count=10):
                assert matrix.probe_many([task])[0].tolist() == [
                    s.fits_all_points(task) for s in shards
                ]

    def test_refresh_column_tracks_mutation(self):
        shards = self._shards(11)
        with use_kernels(True):
            matrix = ShardProbeMatrix(shards)
            newcomer = SporadicTask(
                wcet=0.2, deadline=5.0, period=50.0, name="newcomer"
            )
            shards[2].add(newcomer, 999)
            assert matrix.refresh_column(2, shards[2])
            for task in self._candidates(11, count=10):
                assert matrix.probe_many([task])[0].tolist() == [
                    s.fits_all_points(task) for s in shards
                ]

    def test_refresh_column_reports_outgrown_row(self):
        shard = ShardState()
        shard.add(SporadicTask(wcet=0.1, deadline=5.0, period=50.0), 0)
        with use_kernels(True):
            matrix = ShardProbeMatrix([shard])
            for rank in range(1, 64):
                shard.add(
                    SporadicTask(
                        wcet=0.001, deadline=5.0 + rank, period=500.0
                    ),
                    rank,
                )
            assert not matrix.refresh_column(0, shard)


def _low(name: str, wcet: float, deadline: float, period: float):
    return SporadicDAGTask(DAG({0: wcet}, []), deadline, period, name=name)


def _force_batched(monkeypatch):
    monkeypatch.setattr(controller_mod, "PROBE_MATRIX_MIN_POINTS", 0)


class TestBatchedAdmitMany:
    """admit_many's batched probe session == sequential scalar admits."""

    def _random_batches(self, seed: int):
        rng = np.random.default_rng(seed)
        batches = []
        for b in range(4):
            tasks = []
            for i in range(int(rng.integers(4, 24))):
                period = float(rng.uniform(20, 400))
                deadline = float(rng.uniform(0.3, 0.95)) * period
                wcet = float(rng.uniform(0.002, 0.4)) * deadline
                tasks.append(_low(f"b{b}t{i}", wcet, deadline, period))
            batches.append(tasks)
        return batches

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_traces_identical(self, seed, monkeypatch):
        _force_batched(monkeypatch)

        def run(batched: bool):
            monkeypatch.setattr(
                controller_mod,
                "PROBE_MATRIX_MIN_SHARDS",
                4 if batched else 10**9,
            )
            rng = np.random.default_rng(seed + 99)
            controller = AdmissionController(8)
            trace = []
            live = []
            with use_kernels(True):
                for batch in self._random_batches(seed):
                    decisions = controller.admit_many(batch)
                    trace.append(
                        [(d.accepted, d.processors) for d in decisions]
                    )
                    live.extend(
                        t.name
                        for t, d in zip(batch, decisions)
                        if d.accepted
                    )
                    for _ in range(int(rng.integers(0, 4))):
                        if not live:
                            break
                        victim = live.pop(int(rng.integers(len(live))))
                        controller.depart(victim)
            states = [s.state_vector() for s in controller._shards]
            return trace, states

        assert run(True) == run(False)

    def test_staleness_revalidates_after_accept(self, monkeypatch):
        _force_batched(monkeypatch)
        # Four utilization-0.45 candidates: the upfront broadcast says every
        # one fits shard 0, but each accept consumes the headroom -- the
        # lazy revalidation must spread them across shards exactly like the
        # sequential first-fit scan does.
        batch = [_low(f"fat{i}", 0.9, 2.0, 2.0) for i in range(4)]
        with use_kernels(True):
            controller = AdmissionController(4)
            assert controller._open_batch_session(batch) is not None
            decisions = controller.admit_many(batch)
            sequential = AdmissionController(4)
            expected = [sequential.admit(t) for t in batch]
        assert [(d.accepted, d.processors) for d in decisions] == [
            (d.accepted, d.processors) for d in expected
        ]
        buckets = [d.processors for d in decisions if d.accepted]
        assert len(buckets) == 4 and len(set(buckets)) == 2

    def test_mixed_batch_takes_scalar_path(self, monkeypatch):
        _force_batched(monkeypatch)
        wide = SporadicDAGTask(
            DAG({0: 4.0, 1: 4.0, 2: 4.0}, []), 4.0, 40.0, name="high"
        )
        batch = [_low(f"x{i}", 0.1, 10.0, 20.0) for i in range(4)]
        with use_kernels(True):
            controller = AdmissionController(8)
            assert controller._open_batch_session(batch) is not None
            assert controller._open_batch_session(batch + [wide]) is None
            decisions = controller.admit_many(batch + [wide])
        assert len(decisions) == 5
        assert decisions[-1].kind == "high_density"

    def test_sparse_shards_take_scalar_path(self):
        # Fresh shards hold zero stored test points: under the crowding
        # gate the broadcast cannot win, so no session opens.
        batch = [_low(f"y{i}", 0.1, 10.0, 20.0) for i in range(8)]
        with use_kernels(True):
            controller = AdmissionController(8)
            assert controller._open_batch_session(batch) is None

    def test_kernels_off_takes_scalar_path(self, monkeypatch):
        _force_batched(monkeypatch)
        batch = [_low(f"z{i}", 0.1, 10.0, 20.0) for i in range(8)]
        with use_kernels(False):
            controller = AdmissionController(8)
            assert controller._open_batch_session(batch) is None


class TestKernelBackendFlags:
    def test_env_parsing(self, monkeypatch):
        # "jit" selects no separate backend: like any value other than the
        # off spellings it turns the kernels on.
        for raw, enabled in (("jit", True), ("0", False), ("1", True)):
            monkeypatch.setenv("REPRO_KERNELS", raw)
            assert KernelFlags().enabled is enabled
        monkeypatch.delenv("REPRO_KERNELS")
        assert KernelFlags().enabled

    def test_backend_switch_scoped(self):
        before = kernel_backend()
        with use_kernels(False):
            assert kernel_backend() == "python"
        with use_kernels(True):
            assert kernel_backend() == "numpy"
        assert kernel_backend() == before


class TestAvailableCpus:
    def test_positive(self):
        count = available_cpus()
        assert isinstance(count, int) and count >= 1

    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            os, "process_cpu_count", lambda: 7, raising=False
        )
        assert available_cpus() == 7

    def test_affinity_error_falls_back(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)

        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3

    def test_effective_jobs_resolution(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "available_cpus", lambda: 5)
        assert engine_mod.effective_jobs(None) == 5
        assert engine_mod.effective_jobs(0) == 5
        assert engine_mod.effective_jobs(2) == 2
        with pytest.raises(AnalysisError):
            engine_mod.effective_jobs(-1)
