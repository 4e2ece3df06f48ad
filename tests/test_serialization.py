"""Unit tests for repro.model.serialization."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model import (
    DAG,
    SporadicDAGTask,
    TaskSystem,
    dag_from_dict,
    dag_to_dict,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    task_from_dict,
    task_to_dict,
)


class TestDagRoundTrip:
    def test_roundtrip(self, diamond_dag):
        assert dag_from_dict(dag_to_dict(diamond_dag)) == diamond_dag

    def test_string_vertices_roundtrip(self):
        dag = DAG({"a": 1, "b": 2}, [("a", "b")])
        assert dag_from_dict(dag_to_dict(dag)) == dag

    def test_dict_is_json_compatible(self, diamond_dag):
        json.dumps(dag_to_dict(diamond_dag))

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            dag_from_dict({"edges": []})


# ---------------------------------------------------------------------------
# vertex-id codec: equivalence with a literal per-call reference
# ---------------------------------------------------------------------------
def _ref_decode(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


def _ref_dag_from_dict(data):
    """One decode call per wcets key and per edge endpoint."""
    try:
        wcets = {_ref_decode(v): float(w) for v, w in data["wcets"].items()}
        edges = [(_ref_decode(u), _ref_decode(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed DAG dictionary: {exc}") from exc
    return DAG(wcets, edges)


def _ref_dag_to_dict(dag):
    """One ``str`` call per vertex occurrence."""
    return {
        "wcets": {str(v): w for v, w in dag.wcets.items()},
        "edges": [[str(u), str(v)] for u, v in dag.edges],
    }


def _outcome(fn, arg):
    """A comparable summary of *fn(arg)*: the DAG with id types, or the error."""
    try:
        dag = fn(arg)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    return (
        "dag",
        [(type(v), v) for v in dag.vertices],
        [(type(v), v, w) for v, w in dag.wcets.items()],
        list(dag.edges),
    )


_numbers = st.integers(min_value=-3, max_value=30)
#: Raw wcets keys: plain and zero-padded integers, signs, spaces,
#: underscores and names that stay strings.
_raw_keys = st.one_of(
    _numbers.map(str),
    _numbers.map(lambda i: f"{i:03d}"),
    _numbers.map(lambda i: f" {i}"),
    st.sampled_from(["+4", "1_0", "x", "a7", "07a", ""]),
    st.text(alphabet="abc", min_size=1, max_size=2),
)


@st.composite
def _dag_dicts(draw):
    """Wire DAG dicts whose edges name endpoints verbatim, as ``int``s, in
    another spelling, twice, or not at all (unknown endpoints)."""
    keys = draw(st.lists(_raw_keys, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(
        st.one_of(st.integers(1, 9), st.floats(0.5, 9.0)),
        min_size=len(keys), max_size=len(keys),
    ))

    def spell(key):
        forms = [key]
        try:
            forms += [int(key), f"0{int(key)}", str(int(key))]
        except ValueError:
            pass
        return draw(st.sampled_from(forms))

    edges = []
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(keys) - 1))
        j = draw(st.integers(0, len(keys) - 1))
        if i < j:
            edges.append([spell(keys[i]), spell(keys[j])])
    if edges and draw(st.booleans()):
        edges.append(list(draw(st.sampled_from(edges))))  # duplicate edge
    if draw(st.integers(0, 4)) == 0:
        stranger = draw(st.one_of(_raw_keys, _numbers))
        edges.insert(draw(st.integers(0, len(edges))), [spell(keys[0]), stranger])
    return {"wcets": dict(zip(keys, weights)), "edges": edges}


_vertex_ids = st.one_of(
    st.integers(-3, 30),
    st.integers(0, 30).map(lambda i: f"{i:03d}"),
    st.text(alphabet="ab1", min_size=1, max_size=3),
)


@st.composite
def _mixed_id_dags(draw):
    """DAGs whose vertex ids mix ``int`` and ``str`` (``1`` beside ``"1"``)."""
    ids = draw(st.lists(_vertex_ids, min_size=1, max_size=8, unique=True))
    weights = {v: draw(st.integers(1, 9)) for v in ids}
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return DAG(weights, [p for p, keep in zip(pairs, mask) if keep])


class TestVertexCodecEquivalence:
    @given(_dag_dicts())
    def test_from_dict_matches_reference(self, data):
        assert _outcome(dag_from_dict, data) == _outcome(_ref_dag_from_dict, data)

    @given(_mixed_id_dags())
    def test_to_dict_matches_reference(self, dag):
        encoded = dag_to_dict(dag)
        assert encoded == _ref_dag_to_dict(dag)
        assert json.dumps(encoded) == json.dumps(_ref_dag_to_dict(dag))
        back = json.loads(json.dumps(encoded))
        assert _outcome(dag_from_dict, back) == _outcome(_ref_dag_from_dict, back)

    def test_padded_and_int_endpoints_resolve_like_keys(self):
        data = {"wcets": {"007": 1.0, "b": 2.0, "3": 1.5},
                "edges": [[7, "b"], ["07", "3"], ["007", 3], [7, "b"]]}
        dag = dag_from_dict(data)
        assert dag.vertices == (7, "b", 3)
        assert dag.edges == ((7, "b"), (7, 3))
        assert _outcome(dag_from_dict, data) == _outcome(_ref_dag_from_dict, data)

    @pytest.mark.parametrize("stranger", ["9", 9, "c", "09"])
    def test_unknown_endpoint_raises_model_error(self, stranger):
        data = {"wcets": {"1": 1.0, "a": 1.0}, "edges": [["1", stranger]]}
        with pytest.raises(ModelError, match="unknown vertex"):
            dag_from_dict(data)
        assert _outcome(dag_from_dict, data) == _outcome(_ref_dag_from_dict, data)

    def test_unhashable_endpoint_is_malformed(self):
        # The per-call reference let a list endpoint through to DAG(),
        # which raised a bare TypeError; the lookup table reports it as a
        # malformed dictionary instead.
        with pytest.raises(ModelError, match="malformed DAG dictionary"):
            dag_from_dict({"wcets": {"1": 1.0}, "edges": [[["1"], "1"]]})

    @pytest.mark.parametrize("data", [
        {"wcets": [], "edges": []},
        {"wcets": {"1": 1.0}},
        {"wcets": {"1": None}, "edges": []},
        {"wcets": {"1": 1.0}, "edges": 5},
        {"wcets": {"1": 1.0}, "edges": [3]},
    ])
    def test_malformed_errors_match_reference(self, data):
        assert _outcome(dag_from_dict, data) == _outcome(_ref_dag_from_dict, data)
        with pytest.raises(ModelError, match="malformed"):
            dag_from_dict(data)


class TestTaskRoundTrip:
    def test_roundtrip(self, fig1_task):
        restored = task_from_dict(task_to_dict(fig1_task))
        assert restored == fig1_task
        assert restored.name == fig1_task.name

    def test_malformed_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            task_from_dict({"deadline": 1})


class TestSystemRoundTrip:
    def test_roundtrip(self, mixed_system):
        assert system_from_dict(system_to_dict(mixed_system)) == mixed_system

    def test_version_checked(self, mixed_system):
        data = system_to_dict(mixed_system)
        data["format_version"] = 999
        with pytest.raises(ModelError, match="version"):
            system_from_dict(data)

    def test_missing_version_rejected(self):
        with pytest.raises(ModelError, match="version"):
            system_from_dict({"tasks": []})

    def test_file_roundtrip(self, mixed_system, tmp_path):
        path = tmp_path / "system.json"
        save_system(mixed_system, path)
        assert load_system(path) == mixed_system

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_system(path)

    def test_preserves_derived_quantities(self, mixed_system, tmp_path):
        path = tmp_path / "system.json"
        save_system(mixed_system, path)
        restored = load_system(path)
        assert restored.total_utilization == pytest.approx(
            mixed_system.total_utilization
        )
        assert [t.density for t in restored] == pytest.approx(
            [t.density for t in mixed_system]
        )
