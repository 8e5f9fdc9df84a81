import json
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraphs.graphs import (
    GraphKind,
    MultiHyperedge,
    SchemaError,
    WeightedEdgeMap,
    _Value,
    enumerate_hyperedges,
    enumerate_multihyperedges,
    from_json,
    hyperedge,
    phase_table,
    to_dict,
    validate_kind,
)


def to_json(edge_map):
    return json.dumps(to_dict(edge_map), indent=2)


class TestMultiHyperedge:
    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            MultiHyperedge((), ())

    def test_rejects_unsorted_vertices(self):
        with pytest.raises(ValueError):
            MultiHyperedge((1, 0), (1, 1))
        with pytest.raises(ValueError):
            MultiHyperedge((0, 0), (1, 1))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            MultiHyperedge((0,), (0,))

    def test_vertex_deletion(self):
        edge = MultiHyperedge((0, 2, 3), (1, 2, 3))
        assert edge.without_vertex(2) == MultiHyperedge((0, 3), (1, 3))
        assert hyperedge(1).without_vertex(1) is None


class TestValueBinding:
    """``_Value.__init__`` binds arguments to the fields, by position or by
    name, one to each field."""

    class Point(_Value):
        __slots__ = _fields = ("x", "y", "z")

    def test_by_position_and_by_name(self):
        assert repr(self.Point(1, 2, 3)) == "TestValueBinding.Point(x=1, y=2, z=3)"
        assert self.Point(1, z=3, y=2) == self.Point(x=1, y=2, z=3) == self.Point(1, 2, 3)

    @pytest.mark.parametrize(
        "args,kwargs,fault",
        [
            ((1, 2), {}, "missing 'z'"),
            ((1,), {"z": 3}, "missing 'y'"),
            ((1, 2, 3, 4), {}, "4 positional arguments for 3 fields"),
            ((1, 2, 3), {"w": 4}, "unknown field 'w'"),
            ((1, 2), {"w": 4}, "unknown field 'w', missing 'z'"),
            ((1, 2), {"x": 1}, "'x' given twice, missing 'z'"),
            ((1, 2, 3), {"y": 2}, "'y' given twice"),
        ],
        ids=["missing", "missing-named", "extra", "extra-named", "unknown", "repeated",
             "repeated-extra"],
    )
    def test_a_field_missing_extra_or_repeated_is_a_type_error(self, args, kwargs, fault):
        message = f"TestValueBinding.Point(x, y, z): {fault}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            self.Point(*args, **kwargs)


class TestEnumeration:
    def test_single_vertex(self):
        assert enumerate_hyperedges(1) == [hyperedge(0)]

    def test_two_vertices_order(self):
        assert enumerate_hyperedges(2) == [hyperedge(0), hyperedge(1), hyperedge(0, 1)]

    def test_counts(self):
        assert len(enumerate_hyperedges(4)) == 15

    def test_multi_single_vertex_d4(self):
        assert enumerate_multihyperedges(1, 4) == [
            MultiHyperedge((0,), (1,)),
            MultiHyperedge((0,), (2,)),
            MultiHyperedge((0,), (3,)),
        ]

    def test_multi_count_matches_formula_and_brute_force(self):
        for n in range(1, 5):
            for d in range(2, 7):
                edges = enumerate_multihyperedges(n, d)
                assert len(edges) == d**n - 1
                expected = {
                    (subset, exps)
                    for size in range(1, n + 1)
                    for subset in combinations(range(n), size)
                    for exps in product(range(1, d), repeat=size)
                }
                assert {(e.vertices, e.exponents) for e in edges} == expected

    def test_multi_d2_equals_plain(self):
        for n in range(1, 5):
            assert enumerate_multihyperedges(n, 2) == enumerate_hyperedges(n)

    def test_order_groups_by_support_size(self):
        edges = enumerate_multihyperedges(3, 3)
        arities = [e.arity for e in edges]
        assert arities == sorted(arities)


class TestKinds:
    def test_plain_pair_edge_fits_everything(self):
        emap = WeightedEdgeMap(3, 2, {MultiHyperedge((0, 1), (1, 1)): 1})
        assert all(validate_kind(emap, kind) for kind in GraphKind)

    def test_triple_edge(self):
        emap = WeightedEdgeMap(3, 3, {hyperedge(0, 1, 2): 1})
        assert not validate_kind(emap, GraphKind.GRAPH)
        assert not validate_kind(emap, GraphKind.MULTIGRAPH)
        assert validate_kind(emap, GraphKind.HYPERGRAPH)
        assert validate_kind(emap, GraphKind.MULTIHYPERGRAPH)

    def test_decorated_ring(self):
        emap = WeightedEdgeMap(3, 1, {MultiHyperedge((0,), (2,)): 1})
        assert not validate_kind(emap, GraphKind.HYPERGRAPH)
        assert validate_kind(emap, GraphKind.MULTIHYPERGRAPH)


class TestWeightedEdgeMap:
    def test_zero_weights_dropped(self):
        emap = WeightedEdgeMap(3, 2, {hyperedge(0): 0, hyperedge(1): 3, hyperedge(0, 1): 4})
        assert emap.edges() == (hyperedge(0, 1),)
        assert emap.weights[hyperedge(0, 1)] == 1

    def test_equality_ignores_zero_weight_edges(self):
        a = WeightedEdgeMap(3, 2, {hyperedge(0): 1, hyperedge(1): 0})
        b = WeightedEdgeMap(3, 2, {hyperedge(0): 1})
        assert a == b

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            WeightedEdgeMap(3, 2, {hyperedge(2): 1})

    def test_exponent_range_checked(self):
        with pytest.raises(ValueError):
            WeightedEdgeMap(3, 2, {MultiHyperedge((0,), (3,)): 1})

    @pytest.mark.parametrize("weight", [1.5, 2.0, "1", None, 1 + 0j])
    def test_non_integer_weight_refused(self, weight):
        with pytest.raises(ValueError) as exc:
            WeightedEdgeMap(3, 2, {hyperedge(0): weight})
        assert type(exc.value) is ValueError
        kind = type(weight).__name__
        assert str(exc.value) == (
            f"edge {hyperedge(0)} weight: '{kind}' object cannot be interpreted as an integer"
        )

    def test_integer_like_weights_reduce_to_ints(self):
        import numpy as np

        emap = WeightedEdgeMap(3, 2, {hyperedge(0): np.int64(5), hyperedge(1): True})
        assert emap.weights == {hyperedge(0): 2, hyperedge(1): 1}
        assert all(type(w) is int for w in emap.weights.values())


class TestSerialization:
    def test_empty_map(self):
        emap = WeightedEdgeMap(3, 2, {})
        payload = json.loads(to_json(emap))
        assert payload == {"d": 3, "n": 2, "edges": []}
        assert from_json(to_json(emap)) == emap

    def test_worked_map_round_trips(self):
        emap = WeightedEdgeMap(
            3,
            2,
            {
                MultiHyperedge((0,), (1,)): 2,
                MultiHyperedge((0,), (2,)): 2,
                MultiHyperedge((1,), (1,)): 2,
                MultiHyperedge((1,), (2,)): 2,
                MultiHyperedge((0, 1), (1, 2)): 1,
                MultiHyperedge((0, 1), (2, 2)): 1,
            },
        )
        assert from_json(to_json(emap)) == emap
        assert validate_kind(emap, GraphKind.MULTIHYPERGRAPH)
        assert not validate_kind(emap, GraphKind.HYPERGRAPH)

    def test_serialization_is_stable(self):
        # same map serialized from two different insertion orders
        a = WeightedEdgeMap(4, 2, {hyperedge(0): 1, hyperedge(0, 1): 3})
        b = WeightedEdgeMap(4, 2, {hyperedge(0, 1): 3, hyperedge(0): 1})
        assert to_json(a) == to_json(b)
        assert to_json(from_json(to_json(a))) == to_json(a)

    def test_zero_exponent_rejected_with_path(self):
        text = json.dumps(
            {"d": 3, "n": 1, "edges": [{"vertices": [0], "exponents": [0], "weight": 1}]}
        )
        with pytest.raises(SchemaError) as exc:
            from_json(text)
        assert exc.value.path == "edges[0].exponents[0]"

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError) as exc:
            from_json(json.dumps({"d": 2, "edges": []}))
        assert exc.value.path == "n"

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown field") as exc:
            from_json(json.dumps({"d": 2, "n": 1, "edges": [], "colour": "red"}))
        assert exc.value.path == "colour"

    def test_unknown_edge_field_rejected_and_cut(self):
        edge = {"vertices": [0], "exponents": [1], "weight": 1, "colour": "red"}
        with pytest.raises(SchemaError, match="unknown field") as exc:
            from_json(json.dumps({"d": 2, "n": 1, "edges": [edge]}))
        assert exc.value.path == "edges[0].colour"
        del edge["colour"]
        edge["k" * 1000] = 0
        with pytest.raises(SchemaError) as exc:
            from_json(json.dumps({"d": 2, "n": 1, "edges": [edge]}))
        assert exc.value.path == "edges[0]." + "k" * 77 + "..."

    def test_unknown_phase_table_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown field") as exc:
            phase_table({"d": 2, "n": 1, "phases": [0, 1], "extra": 1})
        assert exc.value.path == "extra"
        assert phase_table({"d": 2, "n": 1, "phases": [0, 1]}) == (2, 1, [0, 1])

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            from_json("{not json")

    def test_integer_past_the_digit_limit_is_invalid_json(self):
        with pytest.raises(SchemaError, match="invalid JSON") as exc:
            from_json('{"d": ' + "1" * 5000 + ', "n": 1, "edges": []}')
        assert exc.value.path == "$"

    def test_duplicate_edge_rejected(self):
        text = json.dumps(
            {
                "d": 3,
                "n": 1,
                "edges": [
                    {"vertices": [0], "exponents": [1], "weight": 1},
                    {"vertices": [0], "exponents": [1], "weight": 2},
                ],
            }
        )
        with pytest.raises(SchemaError) as exc:
            from_json(text)
        assert exc.value.path == "edges[1]"

    def test_vertex_out_of_range_rejected(self):
        text = json.dumps(
            {"d": 3, "n": 2, "edges": [{"vertices": [0, 2], "exponents": [1, 1], "weight": 1}]}
        )
        with pytest.raises(SchemaError) as exc:
            from_json(text)
        assert exc.value.path == "edges[0].vertices[1]"


@st.composite
def edge_maps(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    pool = enumerate_multihyperedges(n, d)
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    weights = {e: draw(st.integers(0, d - 1)) for e in chosen}
    return WeightedEdgeMap(d, n, weights)


@given(edge_maps())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_property(emap):
    assert from_json(to_json(emap)) == emap
