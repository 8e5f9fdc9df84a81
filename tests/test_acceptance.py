"""End-to-end acceptance suite.

One test per acceptance target, each printing a PASS line with its timing
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). Every check
is exact; the stated wall-clock budgets are asserted on the core computation.

Two targets assert previously published values that exhaustive enumeration
disproves; they are kept as strict expected failures (the assertion states the
published value and must keep failing), each paired with a green test that
asserts the enumeration-verified result. See the xfail reasons for the
mathematics.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from quditgraphs.correspondence import (
    HYPERGRAPH,
    MULTIHYPERGRAPH,
    build_system,
    census,
    coefficient_block,
    representability_constraints,
    solve_weights,
)
from quditgraphs.graphs import (
    MultiHyperedge,
    WeightedEdgeMap,
    enumerate_hyperedges,
    enumerate_multihyperedges,
    hyperedge,
)
from quditgraphs.stabilizers import conjugation_report, correction_exponents, verify
from quditgraphs.states import PhaseFunction, build_state, to_dense

from helpers import (
    dense_simulate,
    edge_gate_matrix,
    lowering_shift,
    phase_table_of_map,
    random_edge_map,
    site_operator,
)


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[PASS] {label}: {elapsed * 1e3:.2f} ms (budget {seconds * 1e3:.0f} ms)")
    assert elapsed < seconds, f"{label} took {elapsed:.3f}s, budget {seconds}s"


def pf(d, n, entries):
    return PhaseFunction(d, n, np.array(entries))


WORKED_TABLE = pf(3, 2, [0, 1, 0, 1, 1, 0, 0, 1, 0])
WORKED_WEIGHTS = {
    MultiHyperedge((0,), (1,)): 2,
    MultiHyperedge((0,), (2,)): 2,
    MultiHyperedge((1,), (1,)): 2,
    MultiHyperedge((1,), (2,)): 2,
    MultiHyperedge((0, 1), (1, 2)): 1,
    MultiHyperedge((0, 1), (2, 2)): 1,
}

# Nonzero (i0, i1) tuples in equation (mixed-radix) order for d=3, n=2.
QUTRIT_TUPLES = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_c01_qutrit_pair_system_matrix():
    with budget("c01 coefficient matrix (d=3, n=2, hypergraph)", 0.001):
        system = build_system(pf(3, 2, [0] * 9), HYPERGRAPH)
    assert system.variables == (hyperedge(0), hyperedge(1), hyperedge(0, 1))
    assert system.tuples == tuple(QUTRIT_TUPLES)
    # Rows are (i0, i1, i0*i1) mod 3 in equation order.
    assert system.matrix.tolist() == [
        [0, 1, 0],
        [0, 2, 0],
        [1, 0, 0],
        [1, 1, 1],
        [1, 2, 2],
        [2, 0, 0],
        [2, 1, 2],
        [2, 2, 1],
    ]


def _four_relation_candidate(rhs):
    """Candidate solvability characterization by four linear relations."""
    g = dict(zip(QUTRIT_TUPLES, rhs))
    return (
        g[(1, 0)] == 2 * g[(2, 0)] % 3
        and g[(0, 1)] == 2 * g[(0, 2)] % 3
        and (2 * g[(1, 1)] + 2 * g[(1, 0)]) % 3 == g[(1, 2)]
        and (2 * g[(2, 2)] + g[(1, 0)]) % 3 == g[(2, 1)]
    )


def _reachable_qutrit_tables():
    reachable = set()
    for weights in product(range(3), repeat=3):
        emap = WeightedEdgeMap(
            3, 2, dict(zip((hyperedge(0), hyperedge(1), hyperedge(0, 1)), weights))
        )
        reachable.add(tuple(phase_table_of_map(emap))[1:])
    return reachable


def test_c02_constraints_accept_exactly_the_reachable_tables():
    with budget("c02 solvability constraints vs all 6561 tables", 1.0):
        constraints = representability_constraints(3, 2, HYPERGRAPH)
        accepted = {
            rhs
            for rhs in product(range(3), repeat=8)
            if all(sum(c * f for c, f in zip(y, rhs)) % 3 == 0 for y in constraints)
        }
        reachable = _reachable_qutrit_tables()
    assert len(constraints) == 5
    assert accepted == reachable
    assert len(accepted) == 27
    # The four-relation candidate is a necessary condition: every reachable
    # table satisfies it. One further independent relation completes it.
    assert all(_four_relation_candidate(rhs) for rhs in reachable)
    completed = {
        rhs
        for rhs in product(range(3), repeat=8)
        if _four_relation_candidate(rhs)
        and (dict(zip(QUTRIT_TUPLES, rhs))[(1, 1)]
             + dict(zip(QUTRIT_TUPLES, rhs))[(1, 0)]
             + dict(zip(QUTRIT_TUPLES, rhs))[(0, 1)]) % 3
        == dict(zip(QUTRIT_TUPLES, rhs))[(2, 2)]
    }
    assert completed == reachable


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the four-relation candidate admits 81 of the 6561 rhs vectors, but only "
        "27 are reachable (the matrix has rank 3, so 5 independent relations are "
        "needed); e.g. (0,0,0,1,2,0,0,0) passes all four relations yet forces "
        "f(2,2) = f(1,1) which it violates"
    ),
)
def test_c02_four_relation_candidate_is_complete():
    constraints = representability_constraints(3, 2, HYPERGRAPH)
    accepted = {
        rhs
        for rhs in product(range(3), repeat=8)
        if all(sum(c * f for c, f in zip(y, rhs)) % 3 == 0 for y in constraints)
    }
    by_candidate = {
        rhs for rhs in product(range(3), repeat=8) if _four_relation_candidate(rhs)
    }
    assert accepted == by_candidate


def test_c03_worked_table_obstruction_and_unique_decorated_solution():
    with budget("c03 worked table: plain obstructed, decorated unique", 0.010):
        plain = solve_weights(WORKED_TABLE, HYPERGRAPH)
        decorated = solve_weights(WORKED_TABLE, MULTIHYPERGRAPH)
        rebuilt = build_state(decorated.edge_map)
    assert not plain.solution.consistent and plain.solution.count == 0
    assert decorated.solution.consistent and decorated.solution.count == 1
    assert decorated.edge_map == WeightedEdgeMap(3, 2, WORKED_WEIGHTS)
    assert rebuilt == WORKED_TABLE


def test_c04_mod4_unreachable_table():
    with budget("c04a table (0,1,1,2) over Z_4 unreachable", 0.010):
        outcome = solve_weights(pf(4, 1, [0, 1, 1, 2]), MULTIHYPERGRAPH)
    assert not outcome.solution.consistent
    assert outcome.solution.count == 0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published solution count 2 with set {(1,3,1),(3,1,1)} undercounts: "
        "direct enumeration of all 4^3 weight vectors (see the companion test) "
        "finds 4 solutions, adding (1,1,3) and (3,3,3); the Smith form of the "
        "system has invariant factors (1,2,2) over Z_4, giving 1*2*2 = 4 "
        "solutions whenever consistent"
    ),
)
def test_c04_mod4_two_solution_target():
    outcome = solve_weights(pf(4, 1, [0, 1, 2, 1]), MULTIHYPERGRAPH)
    assert outcome.solution.count == 2
    assert set(outcome.solution.solutions()) == {(1, 3, 1), (3, 1, 1)}


def test_c04_mod4_solution_set_enumerated():
    with budget("c04b table (0,1,2,1) over Z_4 full solution set", 0.010):
        outcome = solve_weights(pf(4, 1, [0, 1, 2, 1]), MULTIHYPERGRAPH)
        vectors = outcome.solution.solutions()
    # independent oracle: every weight vector in Z_4^3, evaluated directly
    oracle = [
        m
        for m in product(range(4), repeat=3)
        if all(
            sum(m[s - 1] * pow(i, s, 4) for s in range(1, 4)) % 4 == f
            for i, f in [(1, 1), (2, 2), (3, 1)]
        )
    ]
    assert vectors == sorted(oracle)
    assert vectors == [(1, 1, 3), (1, 3, 1), (3, 1, 1), (3, 3, 3)]
    assert outcome.solution.count == 4
    assert {(1, 3, 1), (3, 1, 1)} < set(vectors)


def test_c05_qubit_censuses_unique():
    with budget("c05 qubit censuses n=1..3", 5.0):
        reports = [census(2, n, HYPERGRAPH) for n in (1, 2, 3)]
    for n, report in zip((1, 2, 3), reports):
        expected = 2 ** (2**n - 1)
        assert report.total_states == expected
        assert report.reachable == expected
        assert report.histogram_dict() == {1: expected}


def test_c06_qutrit_pair_censuses():
    with budget("c06 qutrit-pair censuses (both modes)", 60.0):
        decorated = census(3, 2, MULTIHYPERGRAPH)
        plain = census(3, 2, HYPERGRAPH)
    assert decorated.total_states == 6561
    assert decorated.reachable == 6561
    assert decorated.histogram_dict() == {1: 6561}
    assert plain.reachable == 27


def test_c07_multiplicity_conservation():
    with budget("c07 solution-sum conservation d=4 and d=6", 60.0):
        mod4 = census(4, 1, MULTIHYPERGRAPH)
        mod6 = census(6, 1, MULTIHYPERGRAPH)
    assert mod4.solution_sum == 4**3 == 64
    assert sum(count * freq for count, freq in mod4.histogram) == 64
    assert mod6.solution_sum == 6**5 == 7776
    assert sum(count * freq for count, freq in mod6.histogram) == 7776


def test_c08_stabilizer_property():
    rng = random.Random(0xC8)
    with budget("c08 stabilizers: 200 random maps + exhaustive small cases", 120.0):
        for _ in range(200):
            d = rng.choice([2, 3, 4, 5])
            n = rng.choice([1, 2, 3])
            emap = random_edge_map(rng, d, n)
            checks = verify(emap)
            assert all(c.stabilized for c in checks), emap
        for weights in product(range(2), repeat=3):
            emap = WeightedEdgeMap(2, 2, dict(zip(enumerate_hyperedges(2), weights)))
            assert all(c.stabilized for c in verify(emap))
        for weights in product(range(3), repeat=2):
            emap = WeightedEdgeMap(
                3, 1, dict(zip(enumerate_multihyperedges(1, 3), weights))
            )
            assert all(c.stabilized for c in verify(emap))


def test_c09_conjugation_identity_exhaustive():
    mismatched_pairs = set()
    with budget("c09 conjugation identity, exhaustive d<=4 n<=2", 120.0):
        for d in (2, 3, 4):
            for n in (1, 2):
                omega = np.exp(2j * np.pi / d)
                for edge in enumerate_multihyperedges(n, d):
                    cz = edge_gate_matrix(d, n, edge, 1)
                    for k in edge.vertices:
                        x_k = site_operator(lowering_shift(d), k, d, n)
                        s_k = edge.exponents[edge.vertices.index(k)]
                        for m in range(d):
                            report = conjugation_report(edge, m, k, d, n)
                            # independently derived form: conjugate with
                            # explicit matrices and compare both candidates
                            lhs = (
                                np.linalg.matrix_power(cz, m)
                                @ x_k
                                @ np.linalg.matrix_power(cz, (d - m) % d)
                            )
                            exact = x_k @ np.diag(
                                omega ** correction_exponents(edge, m, k, d, n)
                            )
                            assert np.allclose(lhs, exact, atol=1e-9)
                            printed = x_k @ np.diag(
                                omega ** np.array(report.printed_diagonal)
                            )
                            assert np.allclose(lhs, printed, atol=1e-9) == report.holds
                            if s_k == 1 or m == 0:
                                assert report.holds
                            elif not report.holds:
                                mismatched_pairs.add((d, s_k))
                                assert report.mismatch_indices
    # documented finding: the deleted-edge form with power m(d-1) is not exact
    # once the deleted vertex carries exponent >= 2 (up to accidental matches
    # like d=4, s_k=2, m=2)
    assert mismatched_pairs == {(3, 2), (4, 2), (4, 3)}
    print(f"[INFO] c09 deleted-edge form fails for (d, s_k) in {sorted(mismatched_pairs)}")


def test_c10_dense_simulator_agreement():
    rng = random.Random(0xC10)
    with budget("c10 dense oracle agreement, 100 random maps", 60.0):
        for _ in range(100):
            d = rng.choice([2, 3, 4])
            n = rng.choice([1, 2, 3])
            emap = random_edge_map(rng, d, n)
            ours = to_dense(build_state(emap)).amplitudes
            oracle = dense_simulate(emap)
            assert np.max(np.abs(ours - oracle)) < 1e-10


def test_c11_digit_power_blocks():
    with budget("c11 digit-power blocks d=4 and d=6", 0.001):
        mod4 = coefficient_block(4, 1)
        mod6 = coefficient_block(6, 1)
    assert mod4.tolist() == [[1, 1, 1], [2, 0, 0], [3, 1, 3]]
    expected6 = [[pow(i, s, 6) for s in range(1, 6)] for i in range(1, 6)]
    assert mod6.tolist() == expected6
    # 2^3 = 8 = 2 (mod 6): row i=2 is (2,4,2,4,2); the variant (2,4,4,4,2)
    # printed elsewhere is wrong at s=3 and must not appear.
    assert mod6.tolist()[1] == [2, 4, 2, 4, 2]
    assert mod6.tolist()[1] != [2, 4, 4, 4, 2]
