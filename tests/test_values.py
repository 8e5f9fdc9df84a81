"""The package's value types: equality, hash, immutability and repr.

The reprs are pinned as literal strings, the text a frozen dataclass of the
same fields gives, because error messages embed them.
"""

import copy
import pickle
import re

import numpy as np
import pytest

from quditgraphs import correspondence, diagonals, newton
from quditgraphs.diagonals import ConjugationReport, VertexCheck
from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap, hyperedge
from quditgraphs.newton import SolutionSet, SolveOutcome
from quditgraphs.states import DenseState, PhaseFunction

EDGE = MultiHyperedge((0, 2), (1, 2))
EDGE_REPR = "MultiHyperedge(vertices=(0, 2), exponents=(1, 2))"
WORKED = [0, 1, 0, 1, 1, 0, 0, 1, 0]


def _assert_frozen(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 1


def _assert_unhashable(value, type_name):
    with pytest.raises(TypeError, match=f"unhashable type: '{type_name}'"):
        hash(value)


class TestMultiHyperedge:
    def test_equality_and_hash(self):
        same = MultiHyperedge(vertices=(0, 2), exponents=(1, 2))
        assert same == EDGE and hash(same) == hash(EDGE)
        assert EDGE != MultiHyperedge((0, 2), (2, 1)) and EDGE != ((0, 2), (1, 2))
        assert {EDGE: 1}[same] == 1

    def test_frozen(self):
        _assert_frozen(EDGE, "vertices")
        assert EDGE.vertices == (0, 2)

    def test_repr(self):
        assert repr(EDGE) == EDGE_REPR
        assert repr(hyperedge(3)) == "MultiHyperedge(vertices=(3,), exponents=(1,))"

    @pytest.mark.parametrize(
        "vertices,exponents,message",
        [
            ((), (), "the empty edge is excluded"),
            ((0, 1), (1,), "one exponent per vertex required"),
            ((-1,), (1,), "negative vertex index"),
            ((1, 0), (1, 1), "vertices must be strictly increasing"),
            ((0,), (0,), "exponents must be >= 1"),
        ],
    )
    def test_validation(self, vertices, exponents, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiHyperedge(vertices, exponents)


class TestWeightedEdgeMap:
    def test_equality_and_unhashability(self):
        edge_map = WeightedEdgeMap(3, 3, {EDGE: 4, hyperedge(1): 3})
        assert edge_map == WeightedEdgeMap(d=3, n=3, weights={EDGE: 1})
        assert edge_map != WeightedEdgeMap(3, 4, {EDGE: 1})
        assert WeightedEdgeMap(3, 2) == WeightedEdgeMap(3, 2, {})
        _assert_unhashable(edge_map, "dict")

    def test_frozen(self):
        edge_map = WeightedEdgeMap(3, 3)
        _assert_frozen(edge_map, "weights")
        assert edge_map.weights == {}

    def test_repr(self):
        edge_map = WeightedEdgeMap(3, 3, {EDGE: 4, hyperedge(1): 3})
        assert repr(edge_map) == f"WeightedEdgeMap(d=3, n=3, weights={{{EDGE_REPR}: 1}})"

    def test_validation_names_the_edge(self):
        message = f"^edge {re.escape(EDGE_REPR)} references a vertex >= 2$"
        with pytest.raises(ValueError, match=message):
            WeightedEdgeMap(3, 2, {EDGE: 1})
        with pytest.raises(ValueError, match=r"^d must be >= 2, got 1$"):
            WeightedEdgeMap(1, 2)


class TestSolutionSet:
    def test_equality_and_hash_leave_out_the_kernel(self):
        a = SolutionSet(4, True, (1, 2), 4, (((2, 0), 2),))
        b = SolutionSet(d=4, consistent=True, particular=(1, 2), count=4, kernel=lambda: ())
        assert a == b and hash(a) == hash(b)
        assert a != SolutionSet(4, True, (1, 3), 4)

    def test_frozen(self):
        solution = SolutionSet(3, False, None, 0)
        _assert_frozen(solution, "count")
        with pytest.raises(AttributeError):
            solution.generators = ()

    def test_repr(self):
        assert repr(SolutionSet(4, True, (1, 2), 4, lambda: ())) == (
            "SolutionSet(d=4, consistent=True, particular=(1, 2), count=4)"
        )
        assert repr(SolutionSet(3, False, None, 0)) == (
            "SolutionSet(d=3, consistent=False, particular=None, count=0)"
        )

    def test_generators_are_built_once(self):
        built = []
        solution = SolutionSet(4, True, (1, 2), 4, lambda: built.append(1) or (((2, 0), 2),))
        assert not built
        assert solution.generators == solution.generators == (((2, 0), 2),)
        assert built == [1] and SolutionSet(3, False, None, 0).generators == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="^inconsistent SolutionSet fields$"):
            SolutionSet(3, True, None, 1)


class TestSolveOutcome:
    def test_unreachable(self):
        outcome = newton.solve_phases(3, 2, WORKED, "hypergraph")
        assert outcome == newton.solve_phases(3, 2, WORKED, "hypergraph")
        assert hash(outcome) == hash(newton.solve_phases(3, 2, WORKED, "hypergraph"))
        assert repr(outcome) == (
            "SolveOutcome(mode='hypergraph', variables=(MultiHyperedge(vertices=(0,), "
            "exponents=(1,)), MultiHyperedge(vertices=(1,), exponents=(1,)), "
            "MultiHyperedge(vertices=(0, 1), exponents=(1, 1))), "
            "fingerprint='cca1526dfc149093', solution=SolutionSet(d=3, consistent=False, "
            "particular=None, count=0), edge_map=None)"
        )
        _assert_frozen(outcome, "solution")

    def test_with_an_edge_map(self):
        outcome = newton.solve_phases(2, 2, [0, 1, 1, 1], "hypergraph")
        edges = (hyperedge(0), hyperedge(1), hyperedge(0, 1))
        given = SolveOutcome(
            mode="hypergraph",
            variables=edges,
            fingerprint=outcome.fingerprint,
            solution=outcome.solution,
            edge_map=outcome.edge_map,
        )
        assert outcome == given and outcome.variables == given.variables == edges
        _assert_unhashable(outcome, "dict")
        assert repr(outcome) == (
            "SolveOutcome(mode='hypergraph', variables=(MultiHyperedge(vertices=(0,), "
            "exponents=(1,)), MultiHyperedge(vertices=(1,), exponents=(1,)), "
            "MultiHyperedge(vertices=(0, 1), exponents=(1, 1))), "
            "fingerprint='50854a1f8633745b', solution=SolutionSet(d=2, consistent=True, "
            "particular=(1, 1, 1), count=1), edge_map=WeightedEdgeMap(d=2, n=2, "
            "weights={MultiHyperedge(vertices=(0,), exponents=(1,)): 1, "
            "MultiHyperedge(vertices=(1,), exponents=(1,)): 1, "
            "MultiHyperedge(vertices=(0, 1), exponents=(1, 1)): 1}))"
        )
        _assert_frozen(outcome, "variables")


class TestPhaseFunction:
    def test_equality_and_unhashability(self):
        state = PhaseFunction(3, 1, np.array([0, 1, 2]))
        assert state == PhaseFunction(d=3, n=1, table=[0, 1, 2])
        assert state != PhaseFunction(3, 1, np.array([0, 2, 1]))
        _assert_unhashable(state, "PhaseFunction")

    def test_frozen(self):
        state = PhaseFunction(3, 1, np.array([0, 1, 2]))
        _assert_frozen(state, "table")
        assert not state.table.flags.writeable

    def test_repr(self):
        assert repr(PhaseFunction(3, 1, np.array([0, 1, 2]))) == (
            "PhaseFunction(d=3, n=1, table=array([0, 1, 2]))"
        )


class TestDenseState:
    def test_identity_equality_and_hash(self):
        amplitudes = np.array([1, 1]) / np.sqrt(2)
        state = DenseState(2, 1, amplitudes)
        assert state == state and state != DenseState(2, 1, amplitudes)
        assert hash(state) == hash(state)

    def test_frozen(self):
        _assert_frozen(DenseState(2, 1, np.array([1, 0])), "amplitudes")

    def test_repr(self):
        assert repr(DenseState(2, 1, np.array([1, 1]) / np.sqrt(2))) == (
            "DenseState(d=2, n=1, amplitudes=array([0.70710678+0.j, 0.70710678+0.j]))"
        )


class TestStabilizerReports:
    def test_vertex_check(self):
        check = VertexCheck(1, False, (2, 5))
        assert check == VertexCheck(vertex=1, stabilized=False, mismatch_indices=(2, 5))
        assert hash(check) == hash(VertexCheck(1, False, (2, 5)))
        assert check != VertexCheck(1, True, ())
        _assert_frozen(check, "stabilized")
        assert repr(check) == "VertexCheck(vertex=1, stabilized=False, mismatch_indices=(2, 5))"

    def test_conjugation_report(self):
        edge = MultiHyperedge((0,), (2,))
        report = diagonals.conjugation_report(edge, 1, 0, 3, 1)
        again = ConjugationReport(
            edge=edge,
            power=1,
            vertex=0,
            target_exponent=2,
            holds=False,
            exact_diagonal=(1, 2, 0),
            printed_diagonal=(2, 2, 2),
            mismatch_indices=(0, 2),
        )
        assert report == again and hash(report) == hash(again)
        _assert_frozen(report, "holds")
        assert repr(report) == (
            "ConjugationReport(edge=MultiHyperedge(vertices=(0,), exponents=(2,)), power=1, "
            "vertex=0, target_exponent=2, holds=False, exact_diagonal=(1, 2, 0), "
            "printed_diagonal=(2, 2, 2), mismatch_indices=(0, 2))"
        )


class TestCorrespondenceSystem:
    def test_identity_equality_and_hash(self):
        table = PhaseFunction(2, 1, np.array([0, 1]))
        system = correspondence.build_system(table, "hypergraph")
        assert system == system and system != correspondence.build_system(table, "hypergraph")
        assert hash(system) == hash(system)
        _assert_frozen(system, "matrix")

    def test_repr(self):
        table = PhaseFunction(2, 1, np.array([0, 1]))
        assert repr(correspondence.build_system(table, "hypergraph")) == (
            "CorrespondenceSystem(d=2, n=1, mode='hypergraph', "
            "variables=(MultiHyperedge(vertices=(0,), exponents=(1,)),), tuples=((1,),), "
            "matrix=array([[1]]), rhs=(1,))"
        )


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_keep_every_field(duplicate):
    table = PhaseFunction(2, 1, np.array([0, 1]))
    outcome = newton.solve_phases(4, 1, [0] * 4, "multihypergraph")
    values = [
        EDGE,
        WeightedEdgeMap(3, 3, {EDGE: 2}),
        outcome.solution,
        outcome,
        table,
        DenseState(2, 1, np.array([1, 0])),
        VertexCheck(1, False, (2, 5)),
        diagonals.conjugation_report(MultiHyperedge((0,), (2,)), 1, 0, 3, 1),
        correspondence.build_system(table, "hypergraph"),
    ]
    for value in values:
        again = duplicate(value)
        assert type(again) is type(value) and repr(again) == repr(value)
    assert duplicate(outcome).solution.generators == outcome.solution.generators
