"""Unit tests for repro.model.dag."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import CompiledDAG
from repro.core.list_scheduling import _upward_rank
from repro.errors import CycleError, ModelError
from repro.model.dag import DAG


class TestConstruction:
    def test_single_vertex(self):
        dag = DAG({0: 5.0})
        assert len(dag) == 1
        assert dag.volume == 5.0
        assert dag.longest_chain_length == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="at least one vertex"):
            DAG({})

    def test_zero_wcet_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            DAG({0: 0})

    def test_negative_wcet_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            DAG({0: -1})

    def test_nan_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: float("nan")})

    def test_infinite_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: float("inf")})

    def test_boolean_wcet_rejected(self):
        with pytest.raises(ModelError, match="number"):
            DAG({0: True})

    def test_string_wcet_rejected(self):
        with pytest.raises(ModelError):
            DAG({0: "3"})

    def test_edge_unknown_source(self):
        with pytest.raises(ModelError, match="unknown vertex"):
            DAG({0: 1}, [(9, 0)])

    def test_edge_unknown_target(self):
        with pytest.raises(ModelError, match="unknown vertex"):
            DAG({0: 1}, [(0, 9)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError, match="self-loop"):
            DAG({0: 1}, [(0, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG({0: 1, 1: 1}, [(0, 1), (1, 0)])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2), (2, 0)])

    def test_duplicate_edges_collapsed(self):
        dag = DAG({0: 1, 1: 1}, [(0, 1), (0, 1)])
        assert dag.edges == ((0, 1),)

    def test_string_vertex_ids(self):
        dag = DAG({"a": 1, "b": 2}, [("a", "b")])
        assert dag.wcet("b") == 2
        assert dag.longest_chain_length == 3


class TestFactories:
    def test_chain(self):
        dag = DAG.chain([1, 2, 3])
        assert dag.volume == 6
        assert dag.longest_chain_length == 6
        assert dag.sources == (0,)
        assert dag.sinks == (2,)

    def test_independent(self):
        dag = DAG.independent([1, 2, 3])
        assert dag.volume == 6
        assert dag.longest_chain_length == 3
        assert len(dag.edges) == 0

    def test_fork_join(self):
        dag = DAG.fork_join([2, 2], source_wcet=1, sink_wcet=1)
        assert dag.volume == 6
        assert dag.longest_chain_length == 4
        assert len(dag.sources) == 1
        assert len(dag.sinks) == 1

    def test_fork_join_empty_branches_rejected(self):
        with pytest.raises(ModelError):
            DAG.fork_join([])

    def test_single_vertex_factory(self):
        dag = DAG.single_vertex(3.5, vertex="only")
        assert dag.wcet("only") == 3.5

    def test_networkx_roundtrip(self, diamond_dag):
        back = DAG.from_networkx(diamond_dag.to_networkx())
        assert back == diamond_dag

    def test_from_networkx_missing_wcet(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_node(0)
        with pytest.raises(ModelError, match="lacks attribute"):
            DAG.from_networkx(g)


class TestStructure:
    def test_topological_order(self, diamond_dag):
        order = diamond_dag.vertices
        pos = {v: i for i, v in enumerate(order)}
        for u, v in diamond_dag.edges:
            assert pos[u] < pos[v]

    def test_volume(self, diamond_dag):
        assert diamond_dag.volume == 7

    def test_longest_chain_length(self, diamond_dag):
        assert diamond_dag.longest_chain_length == 5  # 0 -> 2 -> 3

    def test_longest_chain_vertices(self, diamond_dag):
        chain = diamond_dag.longest_chain()
        assert chain == (0, 2, 3)
        assert diamond_dag.chain_length(chain) == 5

    def test_chain_length_validates(self, diamond_dag):
        with pytest.raises(ModelError, match="not an edge"):
            diamond_dag.chain_length([1, 2])

    def test_chain_length_empty(self, diamond_dag):
        assert diamond_dag.chain_length([]) == 0.0

    def test_successors_predecessors(self, diamond_dag):
        assert set(diamond_dag.successors(0)) == {1, 2}
        assert set(diamond_dag.predecessors(3)) == {1, 2}
        assert diamond_dag.predecessors(0) == ()
        assert diamond_dag.successors(3) == ()

    def test_unknown_vertex_queries(self, diamond_dag):
        for method in ("wcet", "successors", "predecessors", "ancestors",
                       "descendants"):
            with pytest.raises(ModelError, match="unknown vertex"):
                getattr(diamond_dag, method)(99)

    def test_sources_sinks(self, diamond_dag):
        assert diamond_dag.sources == (0,)
        assert diamond_dag.sinks == (3,)

    def test_ancestors(self, diamond_dag):
        assert diamond_dag.ancestors(3) == {0, 1, 2}
        assert diamond_dag.ancestors(0) == frozenset()

    def test_descendants(self, diamond_dag):
        assert diamond_dag.descendants(0) == {1, 2, 3}
        assert diamond_dag.descendants(3) == frozenset()

    def test_contains(self, diamond_dag):
        assert 0 in diamond_dag
        assert 99 not in diamond_dag

    def test_equality_and_hash(self, diamond_dag):
        other = DAG({0: 1, 1: 2, 2: 3, 3: 1}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert other == diamond_dag
        assert hash(other) == hash(diamond_dag)

    def test_inequality_different_wcets(self, diamond_dag):
        other = DAG({0: 9, 1: 2, 2: 3, 3: 1}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert other != diamond_dag

    def test_inequality_different_edges(self, diamond_dag):
        other = DAG({0: 1, 1: 2, 2: 3, 3: 1}, [(0, 1), (1, 3), (2, 3)])
        assert other != diamond_dag

    def test_repr_mentions_metrics(self, diamond_dag):
        text = repr(diamond_dag)
        assert "vol=7" in text and "len=5" in text


class TestTimes:
    def test_earliest_start_times(self, diamond_dag):
        est = diamond_dag.earliest_start_times()
        assert est == {0: 0, 1: 1, 2: 1, 3: 4}

    def test_latest_start_times(self, diamond_dag):
        lst = diamond_dag.latest_start_times(deadline=5)
        assert lst[3] == 4
        assert lst[2] == 1
        assert lst[0] == 0
        # Slack only on the short branch.
        assert lst[1] == 2

    def test_latest_start_infeasible_deadline(self, diamond_dag):
        with pytest.raises(ModelError, match="critical path"):
            diamond_dag.latest_start_times(deadline=4)

    def test_scaled(self, diamond_dag):
        fast = diamond_dag.scaled(2.0)
        assert fast.volume == pytest.approx(3.5)
        assert fast.longest_chain_length == pytest.approx(2.5)
        assert fast.edges == diamond_dag.edges

    def test_scaled_invalid(self, diamond_dag):
        with pytest.raises(ModelError):
            diamond_dag.scaled(0)

    def test_parallelism_profile(self, wide_dag):
        profile = wide_dag.parallelism_profile()
        assert (0.0, 6) in profile
        assert wide_dag.max_parallelism == 6

    def test_chain_max_parallelism_is_one(self, chain_dag):
        assert chain_dag.max_parallelism == 1

    def test_parallelism_profile_ends_at_zero(self, diamond_dag):
        profile = diamond_dag.parallelism_profile()
        assert profile[-1][1] == 0


@st.composite
def _shuffled_dags(draw):
    """Random DAGs whose vertex insertion order is not a topological order,
    with ``int`` and ``float`` WCETs."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    wcets = {
        v: draw(st.one_of(st.integers(1, 9), st.floats(0.1, 9.0)))
        for v in draw(st.permutations(range(n)))
    }
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return DAG(wcets, [p for p, keep in zip(pairs, mask) if keep])


def _reference_order(dag):
    """Kahn's algorithm with ``list.pop(0)``, ready set seeded in insertion order."""
    indegree = {v: len(dag.predecessors(v)) for v in dag.wcets}
    ready = [v for v in dag.wcets if indegree[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in dag.successors(v):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return tuple(order)


def _reference_longest(dag):
    finish = {}
    for v in dag.vertices:
        best = max((finish[p] for p in dag.predecessors(v)), default=0.0)
        finish[v] = best + dag.wcet(v)
    return max(finish.values())


class TestStructuralPassesMatchReference:
    @given(_shuffled_dags())
    def test_topological_order(self, dag):
        assert dag.vertices == _reference_order(dag)

    @given(_shuffled_dags())
    def test_longest_chain_bit_identical(self, dag):
        expected = _reference_longest(dag)
        assert type(dag.longest_chain_length) is type(expected)
        assert dag.longest_chain_length.hex() == expected.hex()

    @given(_shuffled_dags())
    def test_compiled_upward_rank_bit_identical(self, dag):
        reference = _upward_rank(dag)
        rank = CompiledDAG(dag).upward_rank()
        assert [r.hex() for r in rank] == [reference[v].hex() for v in dag.vertices]
