"""The solve of ``newton`` against the same Kronecker solve on a factor of W
found by elimination (``oracles.smith_factor_of``), not the closed form, and
against the decision on all d^n Newton coefficients
(``oracles.full_grid_solve``) that the round trip through W replaced."""

import json
import random
import re
from functools import cache
from itertools import product

import numpy as np
import pytest

from quditgraphs import correspondence, counting, newton
from quditgraphs.cli import main
from quditgraphs.counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    SizeLimit,
    _columns,
    _digit_power_rows,
    _exponent_count,
)
from quditgraphs.lanes import kronecker_pass, lane_values
from quditgraphs.graphs import WeightedEdgeMap, enumerate_multihyperedges
from quditgraphs.newton import (
    KroneckerSolver,
    NonCanonical,
    SolutionSet,
    solve_phases,
)
from quditgraphs.states import PhaseFunction, build_state

from oracles import full_grid_solve, smith_factor_of

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
    base = _digit_power_rows(d, mode)
    solver = KroneckerSolver(lambda: base, *_elimination_factor(d, mode), d=d, power=n)
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


def _full_grid_cells():
    """Every ``_sizes()`` cell in both modes, and the two-byte cells at n = 2
    that ``solve_phases`` answers (see ``test_solve_weights_on_two_byte_tables``)."""
    cells = [(d, n, mode) for d, n in _sizes() for mode in MODES]
    cells += [(d, 2, HYPERGRAPH) for d in (65, 101, 256)]
    return cells + [(101, 2, MULTIHYPERGRAPH)]


@pytest.mark.parametrize("d,n,mode", _full_grid_cells())
def test_agrees_with_the_full_grid_solve(d, n, mode):
    # The decision on all d^n Newton coefficients, as it was made before the
    # round trip through W decided: the same verdict, particular, count and
    # fingerprint on a built, a random and the all-zero table.
    for phases in [*_tables(d, n, mode), [0] * d**n]:
        ours = solve_phases(d, n, phases, mode)
        consistent, particular, count, fingerprint = full_grid_solve(d, n, phases, mode)
        assert ours.solution.consistent == consistent
        assert ours.solution.particular == particular
        assert ours.solution.count == count
        assert ours.fingerprint == fingerprint


@pytest.mark.parametrize("d", [67, 71, 79])
def test_prime_moduli_are_a_bijection(d):
    # The paper's bijection at prime d: every table has exactly one weight
    # vector, and its edge map builds the table through the gate kernel.
    rng = random.Random(f"bijection:{d}")
    for _ in range(2):
        phases = [0] + [rng.randrange(d) for _ in range(d**2 - 1)]
        outcome = solve_phases(d, 2, phases, MULTIHYPERGRAPH)
        assert outcome.solution.count == 1
        assert build_state(outcome.edge_map) == PhaseFunction(d, 2, np.array(phases))


@pytest.mark.parametrize("d", [*range(3, 13), 65, 101, 256])
def test_an_entry_off_the_grid_is_turned_away_by_the_round_trip(d, tmp_path, capsys):
    # c on [2]^n reads f only on [2]^n, and in hypergraph mode every D_j is
    # a unit, so one entry changed off [2]^n leaves the division and x as
    # they were: only the round trip through W turns the table away. At
    # d = 2 every entry is on [2]^n.
    built = _tables(d, 2, HYPERGRAPH)[0]
    assert solve_phases(d, 2, built, HYPERGRAPH).solution.consistent
    rng = random.Random(f"off-grid:{d}")
    i = rng.choice([i for i in range(d**2) if max(divmod(i, d)) >= 2])
    changed = [*built[:i], (built[i] + rng.randrange(1, d)) % d, *built[i + 1 :]]
    outcome = solve_phases(d, 2, changed, HYPERGRAPH)
    assert outcome.solution == SolutionSet(d, False, None, 0)
    assert outcome.edge_map is None
    phases = tmp_path / "phases.json"
    phases.write_text(json.dumps({"d": d, "n": 2, "phases": changed}))
    assert main(["solve", "--phases", str(phases), "--mode", HYPERGRAPH]) == 1
    assert json.loads(capsys.readouterr().out)["consistent"] is False


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


@pytest.mark.parametrize(
    "d,n,mode,refusal",
    [
        (4, 7, MULTIHYPERGRAPH, "kernel generators"),
        (4096, 1, MULTIHYPERGRAPH, "base factor U"),
        (257, 2, MULTIHYPERGRAPH, "solve pass products"),
        (4096, 1, HYPERGRAPH, "solve pass products of 4096^2 entries"),
        (257, 2, HYPERGRAPH, "solve pass products of 257^3 entries"),
    ],
)
def test_a_refused_cell_builds_no_factor(monkeypatch, d, n, mode, refusal):
    def refuse(*args):
        raise AssertionError("the factor was built")

    monkeypatch.setattr(newton, "smith_factor", refuse)
    with pytest.raises(SizeLimit, match=re.escape(refusal)):
        solve_phases(d, n, [0] * d**n, mode)


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
    "d,n,phases,mode,reachable,divides",
    [
        (3, 2, [0, 1, 0, 1, 1, 0, 0, 1, 0], HYPERGRAPH, False, True),
        (3, 2, [0, 1, 0, 1, 1, 0, 0, 1, 0], MULTIHYPERGRAPH, True, True),
        (4, 1, [0, 1, 0, 0], MULTIHYPERGRAPH, False, False),
        (4, 1, [0, 2, 0, 2], MULTIHYPERGRAPH, True, True),
    ],
)
def test_only_a_table_that_passes_the_division_builds_w(
    d, n, phases, mode, reachable, divides, builds
):
    # W is built once, for the round trip, after the division holds; the
    # columns are the solve's unknowns either way. In hypergraph mode every
    # D_j is a unit, so every table divides and the round trip decides.
    assert solve_phases(d, n, phases, mode).solution.consistent == reachable
    assert builds == (["columns", "W"] if divides else ["columns"])


def test_the_base_is_built_once_on_the_first_table_that_divides():
    calls = []

    def base():
        calls.append("W")
        return _digit_power_rows(4, MULTIHYPERGRAPH)

    solver = KroneckerSolver(base, *counting.smith_factor(4, MULTIHYPERGRAPH), d=4, power=1)
    assert not solver.solve([0, 1, 0, 0], range(4)).consistent and calls == []
    assert solver.solve([0, 2, 0, 2], range(4)).consistent and calls == ["W"]
    assert solver.solve([0, 0, 0, 0], range(4)).count == 4 and calls == ["W"]


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
    assert len(outcome.edge_maps()) == outcome.solution.count == 4
    assert not callable(outcome.solution.kernel)
    assert outcome.solution.kernel is outcome.solution.generators


def test_the_free_digit_tuples_wait_for_the_first_read(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)

    monkeypatch.setattr(newton, "product", counted)
    solution = solve_phases(4, 2, [0] * 16, MULTIHYPERGRAPH).solution
    assert solution.count > 1 and calls == []
    assert solution.generators and len(calls) == 1
    assert solution.generators and len(calls) == 1


def test_a_corrupted_w_pass_fails_the_round_trip(monkeypatch):
    rows = newton._digit_power_rows

    def corrupted(d, mode):
        w = rows(d, mode)
        w[1][1] = (w[1][1] + 1) % d
        return w

    monkeypatch.setattr(newton, "_digit_power_rows", corrupted)
    # The division holds, so only the round trip can turn this table away.
    phases = [0, 1, 0, 1, 1, 0, 0, 1, 0]
    outcome = solve_phases(3, 2, phases, MULTIHYPERGRAPH)
    assert outcome.solution == SolutionSet(3, False, None, 0)
    assert outcome.edge_map is None


def test_noncanonical_keeps_its_message():
    with pytest.raises(NonCanonical, match=r"^phase table must have f\(0, \.\.\., 0\) = 0$"):
        solve_phases(3, 2, [1] + [0] * 8, MULTIHYPERGRAPH)


def test_an_unreachable_table_lists_no_edge_maps():
    # f(i) = m·i is the only hypergraph form at n = 1, which [0, 1, 0] is not.
    outcome = solve_phases(3, 1, [0, 1, 0], HYPERGRAPH)
    assert not outcome.solution.consistent and outcome.edge_map is None
    assert outcome.edge_maps() == [] and outcome.edge_maps(cap=0) == []


def test_listing_past_the_cap_is_refused():
    # The all-zero d=4 n=1 table has 4 solutions.
    outcome = solve_phases(4, 1, [0, 0, 0, 0], MULTIHYPERGRAPH)
    assert len(outcome.edge_maps(cap=4)) == 4
    with pytest.raises(ValueError, match=r"^solution count 4 exceeds cap 2$"):
        outcome.edge_maps(cap=2)


def test_solution_sets_compare_without_their_generators():
    phases = [0] * 16
    ours = solve_phases(4, 2, phases, MULTIHYPERGRAPH).solution
    theirs = _reference(4, 2, MULTIHYPERGRAPH, phases)
    bare = SolutionSet(4, True, ours.particular, ours.count)
    assert ours == theirs == bare and hash(ours) == hash(theirs) == hash(bare)
    assert "kernel" not in repr(ours) and callable(ours.kernel)
