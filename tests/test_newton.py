"""The numpy-free solve of ``newton`` against ``correspondence.solve_weights``."""

import random
import re

import numpy as np
import pytest

from quditgraphs import correspondence, newton
from quditgraphs.correspondence import MODES, MULTIHYPERGRAPH, solve_weights
from quditgraphs.graphs import WeightedEdgeMap
from quditgraphs.newton import NonCanonical, RoundTripFailure, solve_phases
from quditgraphs.residues import SizeLimit
from quditgraphs.states import PhaseFunction, build_state

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
    edges = newton._variables(d, n, mode)
    chosen = rng.sample(edges, min(len(edges), rng.randint(0, 64)))
    built = build_state(WeightedEdgeMap(d, n, {e: rng.randrange(d) for e in chosen}))
    return [built.table.tolist(), [0] + [rng.randrange(d) for _ in range(d**n - 1)]]


@pytest.mark.parametrize("d,n", _sizes())
def test_lists_match_solve_weights(d, n):
    for mode in MODES:
        for phases in _tables(d, n, mode):
            ours = solve_phases(d, n, phases, mode)
            theirs = solve_weights(PhaseFunction(d, n, np.array(phases)), mode)
            assert ours.solution.consistent == theirs.solution.consistent
            assert ours.solution.count == theirs.solution.count
            assert ours.solution.particular == theirs.solution.particular
            assert ours.edge_map == theirs.edge_map
            assert ours.fingerprint == theirs.fingerprint
            assert ours.variables == theirs.variables
            assert ours.solution == theirs.solution
            if ours.solution.consistent and ours.solution.count <= 64:
                assert ours.solution.generators == theirs.solution.generators
                assert ours.solution.solutions() == theirs.solution.solutions()


@pytest.mark.parametrize(
    "d,n,mode",
    [(4, 7, MULTIHYPERGRAPH), (6, 5, MULTIHYPERGRAPH), (4096, 1, MULTIHYPERGRAPH)],
    ids=["d4-generators", "d6-generators", "base-factor"],
)
def test_size_refusals_match_solve_weights(d, n, mode):
    phases = [0] * d**n
    with pytest.raises(SizeLimit) as theirs:
        solve_weights(PhaseFunction(d, n, np.array(phases)), mode)
    with pytest.raises(SizeLimit, match=f"^{re.escape(str(theirs.value))}$"):
        solve_phases(d, n, phases, mode)


def test_forward_is_the_kronecker_power():
    rng = np.random.default_rng(3)
    d, n = 6, 3
    matrix = rng.integers(0, d, size=(4, 3))
    flat = rng.integers(0, d, size=3**n)
    power = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        power = np.kron(power, matrix)
    expected = (power @ flat % d).tolist()
    assert newton._forward(matrix.tolist(), flat.tolist(), n, d) == expected


def test_generators_wait_for_the_first_read():
    outcome = solve_phases(4, 1, [0] * 4, MULTIHYPERGRAPH)
    assert callable(outcome.solution.kernel)
    assert "generators" not in vars(outcome.solution)
    assert len(outcome.edge_maps()) == outcome.solution.count == 4
    assert "generators" in vars(outcome.solution)


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
    theirs = solve_weights(PhaseFunction(4, 2, np.array(phases)), MULTIHYPERGRAPH).solution
    assert ours == theirs and hash(ours) == hash(theirs)
    assert "kernel" not in repr(ours) and "generators" not in vars(ours)


def test_the_error_types_are_shared():
    assert correspondence.SolutionSet is newton.SolutionSet
    assert correspondence.SolveOutcome is newton.SolveOutcome
    assert correspondence.NonCanonical is NonCanonical
    assert correspondence.RoundTripFailure is RoundTripFailure
