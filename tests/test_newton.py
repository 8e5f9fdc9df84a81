"""The solve of ``newton`` against the same Kronecker solve on a factor of W
found by elimination (``oracles.smith_factor_of``), not the closed form."""

import random
from functools import cache

import numpy as np
import pytest

from quditgraphs import correspondence, counting, newton
from quditgraphs.counting import _columns, _digit_power_rows, _exponent_count
from quditgraphs.lanes import kronecker_pass, lane_values
from quditgraphs.correspondence import HYPERGRAPH, MODES, MULTIHYPERGRAPH
from quditgraphs.graphs import WeightedEdgeMap, enumerate_multihyperedges
from quditgraphs.newton import (
    KroneckerSolver,
    NonCanonical,
    RoundTripFailure,
    SolutionSet,
    solve_phases,
)
from quditgraphs.residues import SizeLimit
from quditgraphs.states import PhaseFunction, build_state

from oracles import smith_factor_of

# One larger cell per n: the largest d with n·d^(n+1) < 2^16 multiply-adds.
LARGER = [(255, 1), (31, 2), (12, 3), (6, 4), (4, 5), (3, 7), (2, 11)]


def _sizes():
    """Every (d, n) with d^n <= 1296 and n >= 2, n = 1 up to the same d = 36,
    and the larger cells."""
    small = {(d, n) for n in range(1, 11) for d in range(2, 37) if d**n <= 1296 or n == 1}
    return sorted(small | set(LARGER))


def _tables(d, n, mode):
    """A table built from random weights on the mode's edges, and a random one."""
    rng = random.Random(f"{d}:{n}:{mode}")
    edges = enumerate_multihyperedges(n, _exponent_count(d, mode))
    chosen = rng.sample(edges, min(len(edges), rng.randint(0, 64)))
    built = build_state(WeightedEdgeMap(d, n, {e: rng.randrange(d) for e in chosen}))
    return [built.table.tolist(), [0] + [rng.randrange(d) for _ in range(d**n - 1)]]


@cache
def _elimination_factor(d, mode):
    """U, diagonal and V of the mode's W from the Smith form by elimination."""
    return smith_factor_of(_digit_power_rows(d, mode), d)


def _reference(d, n, mode, phases):
    solver = KroneckerSolver(*_elimination_factor(d, mode), d=d, power=n)
    return solver.solve(phases, _columns(d, n, mode))


def _check_against_the_elimination_factor(ours, d, n, mode, phases):
    # The particular solutions may differ between the two factors; the
    # solution sets may not.
    theirs = _reference(d, n, mode, phases)
    assert ours.solution.consistent == theirs.consistent
    assert ours.solution.count == theirs.count
    if ours.solution.consistent:
        table = PhaseFunction(d, n, np.array(phases))
        assert build_state(ours.edge_map) == table
        if ours.solution.count <= 64:
            assert ours.solution.solutions() == theirs.solutions()
    else:
        assert ours.edge_map is None


@pytest.mark.parametrize("d,n", _sizes())
def test_lists_match_the_elimination_factor(d, n):
    for mode in MODES:
        for phases in _tables(d, n, mode):
            ours = solve_phases(d, n, phases, mode)
            _check_against_the_elimination_factor(ours, d, n, mode, phases)


@pytest.mark.parametrize("d", [65, 101, 256])
def test_solve_weights_on_two_byte_tables(d):
    # Past d = 64 a table is two-byte lanes. In hypergraph mode the built
    # table is reachable and the random one is not. In multihypergraph mode
    # n = 2 runs at the prime d = 101 alone, where W is a Vandermonde matrix
    # invertible mod d: each table has one solution, which rebuilds it. At
    # d = 65 and 256 the kernel generators would reach the table limit.
    tables = [PhaseFunction(d, 2, np.array(phases)) for phases in _tables(d, 2, HYPERGRAPH)]
    outcomes = [correspondence.solve_weights(table, HYPERGRAPH) for table in tables]
    assert [outcome.solution.consistent for outcome in outcomes] == [True, False]
    for table, outcome in zip(tables, outcomes):
        _check_against_the_elimination_factor(outcome, d, 2, HYPERGRAPH, table.table.tolist())
    for phases in _tables(d, 2, MULTIHYPERGRAPH):
        table = PhaseFunction(d, 2, np.array(phases))
        if d != 101:
            with pytest.raises(SizeLimit, match="kernel generators"):
                correspondence.solve_weights(table, MULTIHYPERGRAPH)
            continue
        outcome = correspondence.solve_weights(table, MULTIHYPERGRAPH)
        assert outcome.solution.count == 1
        assert build_state(outcome.edge_map) == table


@pytest.mark.parametrize(
    "d,n,message",
    [
        (4, 7, "kernel generators of 16256 x 4^7 entries would reach the limit 16777216"),
        (6, 5, "kernel generators of 7744 x 6^5 entries would reach the limit 16777216"),
        (4096, 1, "base factor U of 4096 x 4096^1 entries would reach the limit 16777216"),
        (257, 2, "solve pass products of 257^3 entries would reach the limit 16777216"),
    ],
    ids=["d4-generators", "d6-generators", "base-factor", "pass-products"],
)
def test_size_refusals_keep_their_messages(d, n, message):
    with pytest.raises(SizeLimit) as refusal:
        solve_phases(d, n, [0] * d**n, MULTIHYPERGRAPH)
    assert str(refusal.value) == message


def test_generators_refusal_comes_before_any_power_of_the_rule(monkeypatch):
    powers, rule = [], newton.divisor_rule

    def spy(diagonal, d, n):
        powers.append(n)
        return rule(diagonal, d, n)

    monkeypatch.setattr(newton, "divisor_rule", spy)
    with pytest.raises(SizeLimit, match="kernel generators"):
        solve_phases(4, 7, [0] * 4**7, MULTIHYPERGRAPH)
    assert powers == [1]


def test_kronecker_pass_is_the_kronecker_power():
    rng = np.random.default_rng(3)
    d, n = 6, 3
    matrix = rng.integers(0, d, size=(4, 3))
    flat = rng.integers(0, d, size=3**n)
    power = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        power = np.kron(power, matrix)
    expected = (power @ flat % d).tolist()
    lanes = kronecker_pass(matrix.tolist(), bytes(flat.tolist()), n, d)
    assert list(lane_values(lanes, d)) == expected


@pytest.fixture
def builds(monkeypatch):
    """"W" for each call of ``_digit_power_rows`` and "columns" for each
    call of ``_columns`` that ``counting`` or ``newton`` make, in order."""
    calls = []
    for name, tag in (("_digit_power_rows", "W"), ("_columns", "columns")):

        def spy(*args, build=getattr(counting, name), tag=tag):
            calls.append(tag)
            return build(*args)

        for module in (counting, newton):
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_a_census_builds_no_w_and_no_columns(mode, builds):
    for d, n in [(2, 3), (4, 1), (6, 2), (12, 3)]:
        counting.census(d, n, mode)
    assert builds == []


@pytest.mark.parametrize(
    "d,n,phases,mode,reachable",
    [
        (3, 2, [0, 1, 0, 1, 1, 0, 0, 1, 0], HYPERGRAPH, False),
        (3, 2, [0, 1, 0, 1, 1, 0, 0, 1, 0], MULTIHYPERGRAPH, True),
        (4, 1, [0, 1, 0, 0], MULTIHYPERGRAPH, False),
        (4, 1, [0, 2, 0, 2], MULTIHYPERGRAPH, True),
    ],
)
def test_only_a_reachable_solve_builds_w(d, n, phases, mode, reachable, builds):
    # W is built once, for the round trip, after the solve; the columns are
    # the solve's unknowns either way.
    assert solve_phases(d, n, phases, mode).solution.consistent == reachable
    assert builds == (["columns", "W"] if reachable else ["columns"])


@pytest.mark.parametrize("mode", MODES)
def test_unknowns_are_built_by_index(mode):
    for d, n in _sizes():
        k = _exponent_count(d, mode)
        unknowns = newton._Unknowns(_columns(d, n, mode), k, n)
        edges = enumerate_multihyperedges(n, k)
        assert [unknowns[i] for i in range(len(unknowns))] == edges == list(unknowns), (d, n)


def test_a_solve_builds_only_the_edges_it_prints():
    outcome = solve_phases(4, 1, [0] * 4, MULTIHYPERGRAPH)
    assert len(outcome.edge_maps()) == outcome.solution.count == 4
    assert isinstance(outcome._variables, newton._Unknowns)
    assert outcome.variables == tuple(enumerate_multihyperedges(1, 4))
    assert outcome.variables is outcome._variables


def test_generators_wait_for_the_first_read():
    outcome = solve_phases(4, 1, [0] * 4, MULTIHYPERGRAPH)
    assert callable(outcome.solution.kernel)
    assert not hasattr(outcome.solution, "_generators")
    assert len(outcome.edge_maps()) == outcome.solution.count == 4
    assert outcome.solution._generators is outcome.solution.generators


def test_a_corrupted_w_pass_fails_the_round_trip(monkeypatch):
    rows = newton._digit_power_rows

    def corrupted(d, mode):
        w = rows(d, mode)
        w[1][1] = (w[1][1] + 1) % d
        return w

    monkeypatch.setattr(newton, "_digit_power_rows", corrupted)
    phases = [0, 1, 0, 1, 1, 0, 0, 1, 0]
    with pytest.raises(RoundTripFailure, match="do not rebuild the table"):
        solve_phases(3, 2, phases, MULTIHYPERGRAPH)


def test_noncanonical_keeps_its_message():
    with pytest.raises(NonCanonical, match=r"^phase table must have f\(0, \.\.\., 0\) = 0$"):
        solve_phases(3, 2, [1] + [0] * 8, MULTIHYPERGRAPH)


def test_solution_sets_compare_without_their_generators():
    phases = [0] * 16
    ours = solve_phases(4, 2, phases, MULTIHYPERGRAPH).solution
    theirs = _reference(4, 2, MULTIHYPERGRAPH, phases)
    bare = SolutionSet(4, True, ours.particular, ours.count)
    assert ours == theirs == bare and hash(ours) == hash(theirs) == hash(bare)
    assert "kernel" not in repr(ours) and not hasattr(ours, "_generators")


def test_the_error_types_are_shared():
    assert correspondence.SolutionSet is newton.SolutionSet
    assert correspondence.SolveOutcome is newton.SolveOutcome
    assert correspondence.NonCanonical is NonCanonical
    assert correspondence.RoundTripFailure is RoundTripFailure
    assert correspondence.KroneckerSolver is newton.KroneckerSolver
