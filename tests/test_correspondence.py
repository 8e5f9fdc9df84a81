import hashlib
import math
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraphs import correspondence, counting
from quditgraphs.correspondence import (
    build_system,
    coefficient_block,
    representability_constraints,
    solve_weights,
)
from quditgraphs.counting import (
    HYPERGRAPH,
    MODES,
    MULTIHYPERGRAPH,
    CensusReport,
    NonPrimeModulus,
    SizeLimit,
    census,
    is_prime,
)
from quditgraphs.graphs import (
    MultiHyperedge,
    WeightedEdgeMap,
    enumerate_multihyperedges,
    hyperedge,
)
from quditgraphs.newton import KroneckerSolver, NonCanonical
from quditgraphs.states import PhaseFunction, build_state

from helpers import brute_force_solutions, phase_table_of_map, random_edge_map
from oracles import PrimeSolver, SmithSolver, smith_factor_of

WORKED_TABLE = PhaseFunction(3, 2, np.array([0, 1, 0, 1, 1, 0, 0, 1, 0]))
WORKED_WEIGHTS = {
    MultiHyperedge((0,), (1,)): 2,
    MultiHyperedge((0,), (2,)): 2,
    MultiHyperedge((1,), (1,)): 2,
    MultiHyperedge((1,), (2,)): 2,
    MultiHyperedge((0, 1), (1, 2)): 1,
    MultiHyperedge((0, 1), (2, 2)): 1,
}


def pf(d, n, entries):
    return PhaseFunction(d, n, np.array(entries))


@lru_cache(maxsize=None)
def dense_reference(d, n, mode):
    """The dense oracle solver factored once per (d, n, mode): elimination
    over GF(d) for prime d, the Smith form otherwise."""
    matrix = build_system(pf(d, n, [0] * d**n), mode).matrix
    return PrimeSolver(matrix, d) if is_prime(d) else SmithSolver(matrix, d)


class TestBuildSystem:
    def test_two_qutrit_plain_system(self):
        system = build_system(WORKED_TABLE, HYPERGRAPH)
        assert system.variables == (hyperedge(0), hyperedge(1), hyperedge(0, 1))
        assert system.tuples == (
            (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
        )
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
        assert system.rhs == (1, 0, 1, 1, 0, 0, 1, 0)

    def test_two_qutrit_decorated_system_entries(self):
        system = build_system(WORKED_TABLE, MULTIHYPERGRAPH)
        assert system.matrix.shape == (8, 8)
        # spot check the row for the tuple (2, 1) against direct evaluation
        row_index = system.tuples.index((2, 1))
        expected = []
        for edge in system.variables:
            entry = 1
            for v, s in zip(edge.vertices, edge.exponents):
                entry = entry * pow((2, 1)[v], s, 3) % 3
            expected.append(entry)
        assert system.matrix[row_index].tolist() == expected

    @pytest.mark.parametrize(
        "d,n,mode",
        [(2, 3, MULTIHYPERGRAPH), (3, 2, HYPERGRAPH), (4, 2, MULTIHYPERGRAPH),
         (6, 2, MULTIHYPERGRAPH), (5, 2, HYPERGRAPH), (3, 3, MULTIHYPERGRAPH)],
    )
    def test_every_entry_is_the_edge_monomial(self, d, n, mode):
        # The fingerprint names this matrix by (d, n, mode) alone, so its
        # entries must not change under that name.
        system = build_system(pf(d, n, [0] * d**n), mode)
        expected = []
        for t in system.tuples:
            for edge in system.variables:
                entry = 1
                for v, s in zip(edge.vertices, edge.exponents):
                    entry = entry * pow(t[v], s, d) % d
                expected.append(entry)
        assert system.matrix.ravel().tolist() == expected

    def test_modes_coincide_for_qubits(self):
        table = pf(2, 3, [0, 1, 1, 0, 1, 0, 0, 1])
        a = build_system(table, HYPERGRAPH)
        b = build_system(table, MULTIHYPERGRAPH)
        assert a.variables == b.variables
        assert np.array_equal(a.matrix, b.matrix)

    def test_noncanonical_rejected(self):
        with pytest.raises(NonCanonical):
            build_system(pf(3, 1, [1, 0, 0]), HYPERGRAPH)

    @pytest.mark.parametrize("mode", ["graph", HYPERGRAPH])
    def test_build_and_solve_refuse_alike(self, mode):
        # An unknown mode is refused before the non-canonical entry.
        refusals = set()
        for call in (build_system, solve_weights):
            with pytest.raises(ValueError) as exc:
                call(pf(3, 1, [1, 0, 0]), mode)
            refusals.add((type(exc.value), str(exc.value)))
        expected = NonCanonical if mode == HYPERGRAPH else ValueError
        assert [error for error, _ in refusals] == [expected]

    def test_fingerprint_is_stable_and_rhs_independent(self):
        a = solve_weights(WORKED_TABLE, HYPERGRAPH).fingerprint
        b = solve_weights(pf(3, 2, [0] * 9), HYPERGRAPH).fingerprint
        assert a == b
        assert a != solve_weights(WORKED_TABLE, MULTIHYPERGRAPH).fingerprint

    def test_every_verb_reports_the_same_fingerprint(self):
        # Every (d, n, mode) with d <= 12 and n <= 3 that solve accepts: the
        # value names the system, whatever the table, and no two share it.
        rng, seen = random.Random(2028), {}
        for d, n, mode in product(range(2, 13), range(1, 4), MODES):
            tables = [[0] * d**n, [0] + [rng.randrange(d) for _ in range(d**n - 1)]]
            try:
                values = {solve_weights(pf(d, n, table), mode).fingerprint for table in tables}
            except SizeLimit:
                continue
            assert values == {census(d, n, mode).matrix_fingerprint}, (d, n, mode)
            seen[values.pop()] = (d, n, mode)
        assert len(seen) == 66
        # The versioned scheme itself: SHA-256 of the sorted, compact name.
        name = b'{"d":3,"mode":"multihypergraph","n":2,"version":2}'
        assert seen["3d843c29f5b82b12"] == (3, 2, MULTIHYPERGRAPH)
        assert hashlib.sha256(name).hexdigest()[:16] == "3d843c29f5b82b12"

    def test_fingerprint_is_hashlibs_sha256_of_the_name(self):
        # The interpreter's own SHA-256 module, not hashlib, hashes the name.
        for d, n, mode in product(range(2, 301), range(1, 21), MODES):
            name = f'{{"d":{d},"mode":"{mode}","n":{n},"version":2}}'.encode()
            assert counting._fingerprint(d, n, mode) == hashlib.sha256(name).hexdigest()[:16]


class TestReadOnlyArrays:
    """Matrices are C-contiguous, read-only int64 arrays reduced mod d."""

    @staticmethod
    def _check(matrix, d):
        assert matrix.dtype == np.int64 and matrix.flags.c_contiguous
        assert not matrix.flags.writeable
        assert 0 <= matrix.min() and matrix.max() < d
        with pytest.raises(ValueError):
            matrix[0, 0] = 0

    @pytest.mark.parametrize(
        "d,n,mode",
        [(2, 3, HYPERGRAPH), (3, 2, MULTIHYPERGRAPH), (4, 2, MULTIHYPERGRAPH),
         (6, 2, HYPERGRAPH), (6, 2, MULTIHYPERGRAPH), (5, 1, MULTIHYPERGRAPH)],
    )
    def test_system_matrix(self, d, n, mode):
        self._check(build_system(pf(d, n, [0] * d**n), mode).matrix, d)

    @pytest.mark.parametrize("d,size", [(2, 3), (3, 2), (4, 1), (6, 1), (5, 2)])
    def test_coefficient_block(self, d, size):
        self._check(coefficient_block(d, size), d)


class TestSizeRefusals:
    """build_system refuses the whole W^{⊗n}, d^n rows of k^n entries, and
    representability_constraints the solver's d^n divisors and its picked
    rows of d^n entries each, before allocating either."""

    @pytest.mark.parametrize(
        "d,n,mode",
        [(2, 3, HYPERGRAPH), (3, 2, HYPERGRAPH), (3, 2, MULTIHYPERGRAPH), (4, 2, MULTIHYPERGRAPH)],
    )
    def test_system_bound_is_exact(self, monkeypatch, d, n, mode):
        k = 2 if mode == HYPERGRAPH else d
        table = pf(d, n, [0] * d**n)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", k**n * d**n)
        with pytest.raises(SizeLimit, match=f"^system of {k**n} x {d}\\^{n} entries"):
            build_system(table, mode)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", k**n * d**n + 1)
        assert build_system(table, mode).matrix.shape[0] == d**n - 1

    def test_system_at_the_table_limit(self):
        # 3^7 x 3^7 = 4.78M entries build; 3^8 x 3^8 = 43M are refused.
        system = build_system(pf(3, 7, [0] * 3**7), MULTIHYPERGRAPH)
        assert system.matrix.shape == (3**7 - 1, 3**7 - 1)
        with pytest.raises(SizeLimit, match="system of 6561 x 3\\^8 entries"):
            build_system(pf(3, 8, [0] * 3**8), MULTIHYPERGRAPH)

    def test_constraint_bounds_are_exact(self, monkeypatch):
        # At (3, 3) the solver holds 3^3 = 27 divisors. Multihypergraph mode
        # picks no row; hypergraph mode picks the 3^3 - 2^3 = 19 rows with a
        # digit 2, 19 x 27 = 513 entries.
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 27)
        for mode in MODES:
            with pytest.raises(SizeLimit, match="^solver divisors of 3\\^3 entries"):
                representability_constraints(3, 3, mode)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 28)
        assert representability_constraints(3, 3, MULTIHYPERGRAPH) == []
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 513)
        with pytest.raises(SizeLimit, match="^constraint rows of 19 x 3\\^3 entries"):
            representability_constraints(3, 3, HYPERGRAPH)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 514)
        assert len(representability_constraints(3, 3, HYPERGRAPH)) == 19

    def test_constraints_at_the_table_limit(self):
        # 3^8 - 2^8 = 6305 rows of 3^8 entries: 41M, refused.
        with pytest.raises(SizeLimit, match="constraint rows of 6305 x 3\\^8 entries"):
            representability_constraints(3, 8, HYPERGRAPH)
        with pytest.raises(SizeLimit, match="solver divisors of 2\\^24 entries"):
            representability_constraints(2, 24, MULTIHYPERGRAPH)


class TestSolveWeights:
    def test_worked_table_not_plain_reachable(self):
        outcome = solve_weights(WORKED_TABLE, HYPERGRAPH)
        assert not outcome.solution.consistent
        assert outcome.solution.count == 0
        assert outcome.edge_map is None

    def test_worked_table_unique_decorated_solution(self):
        outcome = solve_weights(WORKED_TABLE, MULTIHYPERGRAPH)
        assert outcome.solution.consistent and outcome.solution.count == 1
        assert outcome.edge_map == WeightedEdgeMap(3, 2, WORKED_WEIGHTS)
        assert build_state(outcome.edge_map) == WORKED_TABLE

    def test_mod4_unreachable_table(self):
        outcome = solve_weights(pf(4, 1, [0, 1, 1, 2]), MULTIHYPERGRAPH)
        assert not outcome.solution.consistent

    def test_mod4_four_solution_table(self):
        outcome = solve_weights(pf(4, 1, [0, 1, 2, 1]), MULTIHYPERGRAPH)
        assert outcome.solution.count == 4
        vectors = outcome.solution.solutions()
        assert vectors == [(1, 1, 3), (1, 3, 1), (3, 1, 1), (3, 3, 3)]
        for emap in outcome.edge_maps():
            assert phase_table_of_map(emap) == [0, 1, 2, 1]

    def test_round_trip_random_maps(self):
        rng = random.Random(271828)
        for _ in range(30):
            d, n = rng.choice([2, 3, 4, 5, 6]), rng.randint(1, 2)
            emap = random_edge_map(rng, d, n)
            table = build_state(emap)
            outcome = solve_weights(table, MULTIHYPERGRAPH)
            solution = outcome.solution
            assert solution.consistent
            if solution.count <= 256:
                candidates = solution.solutions()
            else:
                # kernel too large to enumerate: check random lattice points
                candidates = [solution.particular]
                for _ in range(8):
                    vec = list(solution.particular)
                    for direction, order in solution.generators:
                        c = rng.randrange(order)
                        vec = [(x + c * g) % d for x, g in zip(vec, direction)]
                    candidates.append(tuple(vec))
            for vec in candidates:
                solved = WeightedEdgeMap(
                    d, n, {e: w for e, w in zip(outcome.variables, vec)}
                )
                assert build_state(solved) == table


class TestGeneratorBound:
    """solve_weights refuses, before solving, kernel generators that would
    reach the table limit: (#free unknowns) x k^n entries."""

    def test_bound_is_exact(self, monkeypatch):
        # d=4: two of W's four Smith entries are units, so at n=2 there are
        # 4^2 - 2^2 = 12 free unknowns and 12 x 4^2 = 192 generator entries.
        table = pf(4, 2, [0] * 16)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 193)
        solution = solve_weights(table, MULTIHYPERGRAPH).solution
        assert len(solution.generators) == 12
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 192)
        with pytest.raises(SizeLimit, match="12 x 4\\^2"):
            solve_weights(table, MULTIHYPERGRAPH)

    def test_units_only_never_refused(self, monkeypatch):
        # Prime d, and plain hyperedges for any d: W has only unit Smith entries.
        # The limit is the least that the d x d factor and the d^n table pass.
        for d, n, mode in [(3, 2, MULTIHYPERGRAPH), (4, 2, HYPERGRAPH), (6, 2, HYPERGRAPH)]:
            monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", max(d * d, d**n) + 1)
            assert solve_weights(pf(d, n, [0] * d**n), mode).solution.count == 1


class TestKroneckerSolve:
    def test_matches_prime_solver_exhaustively_d3_n2(self):
        reference = PrimeSolver(build_system(pf(3, 2, [0] * 9), MULTIHYPERGRAPH).matrix, 3)
        for entries in product(range(3), repeat=8):
            table = pf(3, 2, (0,) + entries)
            outcome = solve_weights(table, MULTIHYPERGRAPH)
            expected = reference.solve(entries)
            assert outcome.solution.particular == expected.particular
            assert outcome.solution.count == expected.count == 1

    def test_three_qudit_round_trips(self):
        rng = random.Random(11)
        for d in (2, 3, 4, 6):
            emap = random_edge_map(rng, d, 3)
            table = build_state(emap)
            outcome = solve_weights(table, MULTIHYPERGRAPH)
            assert build_state(outcome.edge_map) == table


def _differential_cases():
    return [
        (d, n, mode)
        for d in range(2, 9)
        for n in range(1, 9)
        if d**n <= 400
        for mode in MODES
    ]


def _random_kind_map(rng, d, n, mode):
    """Random weights on a random subset of the mode's edges."""
    emap = random_edge_map(rng, d, n)
    if mode == MULTIHYPERGRAPH:
        return emap
    plain = {hyperedge(*e.vertices): w for e, w in emap.items()}
    return WeightedEdgeMap(d, n, plain)


def _assert_agrees(table, mode, reference):
    """solve_weights against a factored dense solver, and against brute force
    when the weight space is small enough to enumerate."""
    outcome = solve_weights(table, mode)
    rhs = tuple(int(x) for x in table.table[1:])
    expected = reference.solve(rhs)
    ours = outcome.solution
    assert ours.consistent == expected.consistent
    assert ours.count == expected.count
    if ours.consistent and ours.count <= 64:
        assert ours.solutions() == expected.solutions()
    matrix = build_system(table, mode).matrix
    if table.d ** matrix.shape[1] <= 10**5:
        assert ours.solutions() == sorted(
            brute_force_solutions(matrix.tolist(), rhs, table.d)
        )


class TestDifferential:
    """The Kronecker solve against PrimeSolver / SmithSolver on the dense system."""

    @pytest.mark.parametrize("d,n,mode", _differential_cases())
    def test_random_and_built_tables(self, d, n, mode):
        rng = random.Random(f"{d}:{n}:{mode}")
        reference = dense_reference(d, n, mode)
        tables = [build_state(_random_kind_map(rng, d, n, mode)) for _ in range(3)]
        tables += [pf(d, n, [0] + [rng.randrange(d) for _ in range(d**n - 1)]) for _ in range(3)]
        for table in tables:
            _assert_agrees(table, mode, reference)

    @given(st.sampled_from(_differential_cases()), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_canonical_tables(self, case, rnd):
        d, n, mode = case
        if rnd.random() < 0.5:
            table = build_state(_random_kind_map(rnd, d, n, mode))
        else:
            table = pf(d, n, [0] + [rnd.randrange(d) for _ in range(d**n - 1)])
        _assert_agrees(table, mode, dense_reference(d, n, mode))


class TestCoefficientBlock:
    def test_mod4_digit_powers(self):
        assert coefficient_block(4, 1).tolist() == [[1, 1, 1], [2, 0, 0], [3, 1, 3]]

    def test_qubit_blocks_are_trivial(self):
        assert coefficient_block(2, 3).tolist() == [[1]]

    def test_mod6_digit_powers(self):
        block = coefficient_block(6, 1)
        expected = [[pow(i, s, 6) for s in range(1, 6)] for i in range(1, 6)]
        assert block.tolist() == expected
        # 2^3 = 8 = 2 (mod 6): the i=2 row is (2,4,2,4,2), not (2,4,4,4,2)
        assert block.tolist()[1] == [2, 4, 2, 4, 2]
        assert block.tolist()[1] != [2, 4, 4, 4, 2]

    def test_prime_block_invertible(self):
        block = coefficient_block(5, 1)
        assert PrimeSolver(block, 5).rank == 4

    def test_kron_structure(self):
        base = coefficient_block(3, 1)
        assert coefficient_block(3, 2).tolist() == (np.kron(base, base) % 3).tolist()


class TestRepresentabilityConstraints:
    def test_accepted_set_is_exactly_the_reachable_set(self):
        constraints = representability_constraints(3, 2, HYPERGRAPH)
        assert len(constraints) == 5
        reachable = set()
        for weights in product(range(3), repeat=3):
            emap = WeightedEdgeMap(
                3, 2, dict(zip((hyperedge(0), hyperedge(1), hyperedge(0, 1)), weights))
            )
            reachable.add(tuple(phase_table_of_map(emap))[1:])
        accepted = {
            rhs
            for rhs in product(range(3), repeat=8)
            if all(sum(c * f for c, f in zip(y, rhs)) % 3 == 0 for y in constraints)
        }
        assert accepted == reachable
        assert len(accepted) == 27

    def test_prime_decorated_system_has_no_constraints(self):
        assert representability_constraints(3, 2, MULTIHYPERGRAPH) == []
        assert representability_constraints(5, 1, MULTIHYPERGRAPH) == []

    def test_qubit_plain_system_has_no_constraints(self):
        assert representability_constraints(2, 2, HYPERGRAPH) == []

    def test_composite_rejected(self):
        with pytest.raises(NonPrimeModulus):
            representability_constraints(4, 1, MULTIHYPERGRAPH)

    @pytest.mark.parametrize(
        "d,n,mode",
        [(d, n, mode) for d in (2, 3, 5, 7) for n in range(1, 9) if d**n <= 400 for mode in MODES],
    )
    def test_spans_the_dense_left_nullspace(self, d, n, mode):
        # Rows of U^{⊗n} against elimination on the dense system.
        width = d**n - 1
        ours = np.array(representability_constraints(d, n, mode), dtype=np.int64).reshape(-1, width)
        basis = dense_reference(d, n, mode).left_nullspace()
        expected = np.array(basis, dtype=np.int64).reshape(-1, width)
        assert ours.shape == expected.shape
        # In the span of the reduced row-echelon basis: a vector's coordinates
        # there are its entries at the basis pivots.
        pivots = (expected != 0).argmax(axis=1)
        assert (ours[:, pivots] @ expected % d == ours).all()
        # Independent: the rows end in distinct columns.
        ends = width - 1 - (ours[:, ::-1] != 0).argmax(axis=1)
        assert len(set(ends.tolist())) == len(ours)


class TestCensus:
    def test_all_qubit_tables_uniquely_reachable(self):
        report = census(2, 2, HYPERGRAPH)
        assert report.total_states == 8
        assert report.reachable == 8
        assert report.histogram_dict() == {1: 8}

    def test_qutrit_plain_reachable_count(self):
        report = census(3, 2, HYPERGRAPH)
        assert report.total_states == 6561
        assert report.reachable == 27
        assert report.histogram_dict() == {0: 6534, 1: 27}

    def test_mod4_multiplicities(self):
        report = census(4, 1, MULTIHYPERGRAPH)
        assert report.total_states == 64
        assert report.histogram_dict() == {0: 48, 4: 16}
        assert report.solution_sum == 64 == report.weight_assignments

    def test_prime_census_unique(self):
        assert census(3, 1, MULTIHYPERGRAPH).histogram_dict() == {1: 9}
        assert census(5, 1, MULTIHYPERGRAPH).histogram_dict() == {1: 625}

    def test_solution_sum_conservation(self):
        for d, n, mode in [(2, 2, HYPERGRAPH), (3, 1, MULTIHYPERGRAPH), (6, 1, MULTIHYPERGRAPH)]:
            report = census(d, n, mode)
            assert report.solution_sum == report.weight_assignments

    def test_size_limit_refusal(self):
        census(1234, 1, MULTIHYPERGRAPH)
        with pytest.raises(
            SizeLimit, match=r"^census of 11 x 1235\^2 entries would reach the limit 16777216$"
        ):
            census(1235, 1, MULTIHYPERGRAPH)

    def test_census_agrees_with_per_table_solver(self):
        report = census(3, 1, MULTIHYPERGRAPH)
        counts = {}
        for entries in product(range(3), repeat=2):
            table = pf(3, 1, (0,) + entries)
            counts[entries] = solve_weights(table, MULTIHYPERGRAPH).solution.count
        assert report.reachable == sum(1 for c in counts.values() if c)
        assert report.solution_sum == sum(counts.values())


class TestVariableColumns:
    """``counting`` reads each variable's column in W^{⊗n} off bare
    (support, exponents) pairs; the solver's unknowns are ``graphs`` edges."""

    @pytest.mark.parametrize("mode", MODES)
    def test_columns_follow_the_graphs_enumeration(self, mode):
        for d in range(2, 9):
            k = 2 if mode == HYPERGRAPH else d
            for n in range(1, 13):
                if d**n > 4096:
                    break
                edges = enumerate_multihyperedges(n, k)
                expected = [
                    sum(s * k ** (n - 1 - v) for v, s in zip(e.vertices, e.exponents))
                    for e in edges
                ]
                assert counting._columns(d, n, mode) == expected, (d, n)
                assert len(edges) == (2**n if mode == HYPERGRAPH else d**n) - 1

    def test_report_keeps_its_fields_and_repr(self):
        report = census(2, 1, HYPERGRAPH)
        assert repr(report).startswith("CensusReport(d=2, n=1, mode='hypergraph', total_states=2,")
        assert report == census(2, 1, HYPERGRAPH) != census(2, 1, MULTIHYPERGRAPH)
        assert report.histogram_dict() == {1: 2}


def _census_cases():
    """Every (d, n, mode) whose census has at most 8000 tables."""
    return [
        (d, n, mode)
        for d in range(2, 9)
        for n in range(1, 5)
        if d ** (d**n - 1) <= 8000
        for mode in MODES
    ]


def _per_table_census(d, n, mode):
    """The census by one dense-system solve per table: the slow reference."""
    system = build_system(pf(d, n, [0] * d**n), mode)
    solver = dense_reference(d, n, mode)
    histogram = Counter()
    reachable = solution_sum = 0
    for rhs in product(range(d), repeat=d**n - 1):
        result = solver.solve(rhs)
        histogram[result.count] += 1
        if result.consistent:
            reachable += 1
            solution_sum += result.count
    return CensusReport(
        d=d,
        n=n,
        mode=mode,
        total_states=d ** (d**n - 1),
        reachable=reachable,
        histogram=tuple(sorted(histogram.items())),
        solution_sum=solution_sum,
        weight_assignments=d ** len(system.variables),
        matrix_fingerprint=solve_weights(pf(d, n, [0] * d**n), mode).fingerprint,
    )


class TestCensusDifferential:
    """The closed-form census against a per-table solve."""

    @pytest.mark.parametrize("d,n,mode", _census_cases())
    def test_matches_per_table_solves(self, d, n, mode):
        assert census(d, n, mode) == _per_table_census(d, n, mode)


class TestClosedFormCensus:
    """The census reads its histogram off the kernel size: no table is solved."""

    @pytest.mark.parametrize("mode", MODES)
    def test_past_any_enumeration(self, mode):
        start = time.perf_counter()
        report = census(3, 3, mode)
        assert time.perf_counter() - start < 1.0
        assert report.total_states == 3**26
        if mode == MULTIHYPERGRAPH:
            # Prime d: decorated weights and canonical tables are in bijection.
            assert report.histogram_dict() == {1: 3**26}
        else:
            # One table per weight vector on the 2^3 - 1 plain hyperedges.
            assert report.histogram_dict() == {0: 3**26 - 3**7, 1: 3**7}
        assert report.solution_sum == report.weight_assignments


class TestNoDenseSystem:
    """solve_weights and census work on the Kronecker factor alone."""

    @pytest.mark.parametrize(
        "d,n,mode",
        [(2, 3, HYPERGRAPH), (3, 1, MULTIHYPERGRAPH), (4, 1, MULTIHYPERGRAPH),
         (6, 1, HYPERGRAPH), (3, 2, HYPERGRAPH)],
    )
    def test_never_assembled(self, monkeypatch, d, n, mode):
        rng = random.Random(f"factor-only:{d}:{n}:{mode}")
        tables = [build_state(_random_kind_map(rng, d, n, mode))]
        tables += [pf(d, n, [0] + [rng.randrange(d) for _ in range(d**n - 1)]) for _ in range(2)]
        reference = dense_reference(d, n, mode)
        expected = [reference.solve(tuple(int(x) for x in t.table[1:])) for t in tables]
        expected_census = _per_table_census(d, n, mode)

        def refuse(*args):
            raise AssertionError("the dense system was assembled")

        monkeypatch.setattr(correspondence, "_system_parts", refuse)
        for table, reference_solution in zip(tables, expected):
            solution = solve_weights(table, mode).solution
            assert solution.consistent == reference_solution.consistent
            assert solution.count == reference_solution.count
        assert census(d, n, mode) == expected_census


def _closed_form_kernel(d, n, mode):
    """K = prod_j g_j from the rule on the closed-form diagonal s!."""
    return math.prod(counting.divisor_rule(counting._factorial_diagonal(d, mode), d, n)[0])


class TestClosedFormFactor:
    """U·W·V = diag(s!) (mod d) from recurrences, checked by multiplying out:
    U is the first k rows of Pascal's signed d x d matrix, the rows that meet
    the diagonal."""

    @pytest.mark.parametrize("d", range(2, 65))
    @pytest.mark.parametrize("mode", MODES)
    def test_factors_the_digit_power_matrix(self, d, mode):
        u, diagonal, v = (np.array(part, dtype=np.int64) for part in counting.smith_factor(d, mode))
        k = len(diagonal)
        w = np.array([[pow(i, s, d) for s in range(k)] for i in range(d)], dtype=np.int64)
        expected = np.zeros((k, k), dtype=np.int64)
        expected[range(k), range(k)] = [math.factorial(s) % d for s in range(k)]
        assert (u @ w % d @ v % d == expected).all()
        # Unitriangular, so invertible over Z: U lower, V upper.
        assert (u == np.tril(u)).all() and (np.diag(u) == 1).all()
        assert (v == np.triu(v)).all() and (np.diag(v) == 1).all()
        assert u.shape == (k, d) and v.shape == (k, k)

    def test_refuses_a_base_at_the_table_limit(self, monkeypatch):
        # U is k x d, as many entries as W.
        with pytest.raises(SizeLimit, match="4096 x 4096"):
            counting.smith_factor(4096, MULTIHYPERGRAPH)
        assert len(counting.smith_factor(4096, HYPERGRAPH)[0][1]) == 4096
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 26)
        assert len(counting.smith_factor(5, MULTIHYPERGRAPH)[0]) == 5
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 25)
        with pytest.raises(SizeLimit, match="5 x 5"):
            counting.smith_factor(5, MULTIHYPERGRAPH)
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", 10)
        with pytest.raises(SizeLimit, match="2 x 5"):
            counting.smith_factor(5, HYPERGRAPH)


class TestClosedFormKernel:
    """The kernel size from the closed-form Smith diagonal s! of W against
    the Smith form found by elimination, and against the dense system."""

    @pytest.mark.parametrize("d", range(2, 41))
    def test_matches_the_kronecker_solver(self, d):
        n = 1
        while d**n <= 3000:
            for mode in MODES:
                rows = counting._digit_power_rows(d, mode)
                solver = KroneckerSolver(lambda: rows, *smith_factor_of(rows, d), d=d, power=n)
                per_tuple = math.prod(solver.gcd)
                assert _closed_form_kernel(d, n, mode) == solver.count == per_tuple, (d, n, mode)
            n += 1

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in range(2, 9) for n in range(1, 4) if d**n <= 36]
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_dense_smith_solver(self, d, n, mode):
        system = build_system(pf(d, n, [0] * d**n), mode)
        zero = SmithSolver(system.matrix, d).solve([0] * len(system.matrix))
        assert _closed_form_kernel(d, n, mode) == zero.count

    def test_large_base_matches_legendre(self):
        # gcd(s!, 2^9) over s < 512, with v_2(s!) = s - popcount(s) (Legendre).
        kernel = math.prod(2 ** min(s - bin(s).count("1"), 9) for s in range(512))
        total = 512**511
        report = census(512, 1, MULTIHYPERGRAPH)
        assert report.histogram_dict() == {0: total - total // kernel, kernel: total // kernel}
