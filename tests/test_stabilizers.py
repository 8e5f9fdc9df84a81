import random
from itertools import product

import numpy as np
import pytest

from quditgraphs.diagonals import (
    edge_map_table,
    generated_table,
    lane_width,
    roll_table,
    vertex_checks,
)
from quditgraphs.graphs import (
    MultiHyperedge,
    WeightedEdgeMap,
    enumerate_hyperedges,
    enumerate_multihyperedges,
    hyperedge,
)
from quditgraphs.stabilizers import (
    apply_generator,
    conjugation_report,
    correction_exponents,
    verify,
)
from quditgraphs.states import (
    PhaseFunction,
    VertexOutOfRange,
    _from_lanes,
    _lanes,
    build_state,
    to_dense,
)

from helpers import (
    edge_gate_matrix,
    lowering_shift,
    many_row_map,
    phase_table_of_map,
    random_edge_map,
    site_operator,
)


def pf(d, n, entries):
    return PhaseFunction(d, n, np.array(entries))


def plus_state(n, d):
    """|+_d>^{(x)n}: the state of the empty map, the all-zero table."""
    return build_state(WeightedEdgeMap(d, n, {}))


def apply_shift(state, k):
    """The kernel's shift X_k on a state's table: new f(i) = f(..., i_k + 1, ...)."""
    return _from_lanes(state.d, state.n, roll_table(_lanes(state), state.d, state.n, k))


class TestRollTable:
    def test_qubit_swap(self):
        assert apply_shift(pf(2, 1, [0, 1]), 0) == pf(2, 1, [1, 0])

    def test_qutrit_cycle(self):
        # lowering convention: new f(i) = f(i + 1)
        assert apply_shift(pf(3, 1, [0, 1, 2]), 0) == pf(3, 1, [1, 2, 0])

    def test_period_d(self):
        rng = random.Random(1)
        for _ in range(10):
            d, n = rng.choice([2, 3, 4, 5]), rng.randint(1, 3)
            state = pf(d, n, [rng.randrange(d) for _ in range(d**n)])
            k = rng.randrange(n)
            cycled = state
            for _ in range(d):
                cycled = apply_shift(cycled, k)
            assert cycled == state

    def test_shift_matches_matrix_action(self):
        d, n, k = 3, 2, 1
        state = pf(d, n, [0, 1, 2, 2, 0, 1, 1, 1, 0])
        shifted = apply_shift(state, k)
        x_k = site_operator(lowering_shift(d), k, d, n)
        assert np.allclose(
            to_dense(shifted).amplitudes, x_k @ to_dense(state).amplitudes, atol=1e-12
        )

    def test_vertex_range(self):
        # The shift is g_k of the empty map, which checks k first.
        empty = WeightedEdgeMap(2, 1, {})
        with pytest.raises(VertexOutOfRange):
            generated_table(empty, 1, edge_map_table(empty))


class TestGenerator:
    def test_vertex_without_edges_gets_bare_shift(self):
        emap = WeightedEdgeMap(3, 2, {hyperedge(1): 2})
        state = pf(3, 2, [0, 1, 2, 2, 0, 1, 1, 1, 0])
        assert apply_generator(state, emap, 0) == apply_shift(state, 0)

    def test_single_vertex_decorated_edge_residual_diagonal(self):
        # e = {0} with exponent 2 at d = 3: deleting the vertex leaves a bare
        # diagonal ((i-1)^2 - i^2 table), not a deleted-edge gate.
        edge = MultiHyperedge((0,), (2,))
        assert list(correction_exponents(edge, 1, 0, 3, 1)) == [1, 2, 0]
        assert not conjugation_report(edge, 1, 0, 3, 1).holds

    def test_refuses_mismatched_dimensions(self):
        emap = WeightedEdgeMap(3, 2, {hyperedge(0, 1): 1})
        for state in (plus_state(3, 3), plus_state(2, 2)):
            with pytest.raises(ValueError, match="dimensions differ"):
                apply_generator(state, emap, 0)

    def test_refuses_vertex_out_of_range(self):
        emap = WeightedEdgeMap(3, 2, {hyperedge(0, 1): 1})
        for k in (-1, 2):
            with pytest.raises(VertexOutOfRange):
                apply_generator(build_state(emap), emap, k)


class TestVerify:
    def test_empty_map_fixed_by_all_shifts(self):
        checks = verify(WeightedEdgeMap(4, 2, {}))
        assert [c.stabilized for c in checks] == [True, True]

    def test_worked_two_qutrit_map(self):
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
        assert all(c.stabilized for c in verify(emap))

    def test_exhaustive_qubit_pairs(self):
        edges = enumerate_hyperedges(2)
        for weights in product(range(2), repeat=len(edges)):
            emap = WeightedEdgeMap(2, 2, dict(zip(edges, weights)))
            assert all(c.stabilized for c in verify(emap))

    def test_exhaustive_single_vertex_small_dimensions(self):
        for d in (2, 3):
            edges = enumerate_multihyperedges(1, d)
            for weights in product(range(d), repeat=len(edges)):
                emap = WeightedEdgeMap(d, 1, dict(zip(edges, weights)))
                assert all(c.stabilized for c in verify(emap))

    def test_random_maps(self):
        rng = random.Random(8080)
        for _ in range(40):
            emap = random_edge_map(rng, rng.choice([2, 3, 4, 5]), rng.randint(1, 3))
            checks = verify(emap)
            assert all(c.stabilized for c in checks), emap

    def test_generator_matches_matrix_conjugation(self):
        # g_k applied via phase tables equals D X_k D^dagger applied as matrices
        rng = random.Random(2024)
        for _ in range(5):
            d, n = rng.choice([2, 3, 4]), rng.randint(1, 2)
            emap = random_edge_map(rng, d, n)
            state = build_state(emap)
            dense = to_dense(state).amplitudes
            gate_product = np.eye(d**n, dtype=complex)
            for edge, weight in emap.items():
                gate_product = edge_gate_matrix(d, n, edge, weight) @ gate_product
            for k in range(n):
                x_k = site_operator(lowering_shift(d), k, d, n)
                g_matrix = gate_product @ x_k @ gate_product.conj().T
                moved = apply_generator(state, emap, k)
                assert np.allclose(to_dense(moved).amplitudes, g_matrix @ dense, atol=1e-10)


class TestConjugation:
    def test_qubit_cz_identity(self):
        assert conjugation_report(hyperedge(0, 1), 1, 0, 2, 2).holds

    def test_plain_edges_always_match(self):
        for d in (2, 3, 4, 5):
            for edge in enumerate_hyperedges(2):
                for m in range(d):
                    for k in edge.vertices:
                        assert conjugation_report(edge, m, k, d, 2).holds

    def test_zero_power_always_matches(self):
        for d in (3, 4):
            for edge in enumerate_multihyperedges(2, d):
                for k in edge.vertices:
                    assert conjugation_report(edge, 0, k, d, 2).holds

    def test_decorated_target_vertex_mismatch(self):
        report = conjugation_report(MultiHyperedge((0, 1), (2, 2)), 1, 1, 3, 2)
        assert not report.holds
        assert report.target_exponent == 2
        assert report.mismatch_indices

    def test_even_power_accidental_match_mod4(self):
        # (i-1)^2 - i^2 = 1 - 2i; doubled it is constant 2 = 2*(d-1) mod 4
        assert conjugation_report(MultiHyperedge((0,), (2,)), 2, 0, 4, 1).holds
        assert not conjugation_report(MultiHyperedge((0,), (2,)), 1, 0, 4, 1).holds

    def test_qudit6_decorated_target_holds_only_at_half_power(self):
        # (i-1)^2 - i^2 = 1 - 2i, so the gap to -m*j is 2m(1 - i)*j: zero mod 6
        # at m = 3 although the deleted vertex carries exponent 2.
        d, n, edge = 6, 2, MultiHyperedge((0, 1), (2, 1))
        cz = edge_gate_matrix(d, n, edge, 1)
        x_0 = site_operator(lowering_shift(d), 0, d, n)
        for m, holds in ((3, True), (1, False)):
            lhs = np.linalg.matrix_power(cz, m) @ x_0 @ np.linalg.matrix_power(cz, d - m)
            deleted = edge_gate_matrix(d, n, hyperedge(1), m * (d - 1))
            assert np.allclose(lhs, x_0 @ deleted, atol=1e-9) is holds
            assert conjugation_report(edge, m, 0, d, n).holds is holds

    def test_exact_diagonal_reproduces_conjugated_matrix(self):
        rng = random.Random(55)
        cases = []
        for d in (2, 3, 4):
            for edge in enumerate_multihyperedges(2, d):
                for k in edge.vertices:
                    cases.append((d, edge, rng.randrange(d), k))
        for d, edge, m, k in rng.sample(cases, 12):
            n = 2
            omega = np.exp(2j * np.pi / d)
            cz = edge_gate_matrix(d, n, edge, 1)
            x_k = site_operator(lowering_shift(d), k, d, n)
            lhs = (
                np.linalg.matrix_power(cz, m)
                @ x_k
                @ np.linalg.matrix_power(cz, d - m if m else 0)
            )
            report = conjugation_report(edge, m, k, d, n)
            exact = np.diag(omega ** correction_exponents(edge, m, k, d, n))
            printed = np.diag(omega ** np.array(report.printed_diagonal))
            assert np.allclose(lhs, x_k @ exact, atol=1e-9)
            assert np.allclose(lhs, x_k @ printed, atol=1e-9) == report.holds

    def test_requires_vertex_in_edge(self):
        with pytest.raises(ValueError):
            conjugation_report(hyperedge(0), 1, 1, 3, 2).holds


def numpy_generated(edge_map, table, k):
    """g_k applied to a flat table by numpy broadcasts: every correction of
    an edge containing k added on the (d,)*n grid, then the shift on k."""
    d, n = edge_map.d, edge_map.n
    grid = table.reshape((d,) * n).astype(np.int64)
    for edge, weight in edge_map.items():
        if k not in edge.vertices:
            continue
        term = np.full((1,) * n, weight, dtype=np.int64)
        for v, s in zip(edge.vertices, edge.exponents):
            row = [pow(i - 1, s, d) - pow(i, s, d) if v == k else pow(i, s, d) for i in range(d)]
            row = np.array(row, dtype=np.int64) % d
            term = term * row.reshape((1,) * v + (d,) + (1,) * (n - 1 - v)) % d
        grid = grid + term
    return np.roll(grid % d, -1, axis=k).reshape(-1)


@pytest.mark.parametrize(
    "d,n", [(2, 5), (3, 4), (5, 3), (6, 3), (65, 2), (101, 2), (256, 2), (257, 2)]
)
def test_verify_reports_the_mismatches_of_a_corrupted_table(d, n):
    rng = random.Random(f"corrupt:{d}:{n}")
    pool = enumerate_multihyperedges(n, d, max_arity=2)
    edge_map = WeightedEdgeMap(d, n, {e: rng.randrange(d) for e in rng.sample(pool, 12)})
    check_corrupted_tables(edge_map, rng)


@pytest.mark.parametrize("d", [64, 65, 70, 86])
def test_verify_reports_the_mismatches_of_a_corrupted_narrow_lane_table(d):
    # Three distinct first rows on the span (0, 1) and edges on each vertex
    # alone, at d near the one-byte bound: verify's last sum adds the
    # state's table to the span's grids, the next span and the table so far.
    weights = {
        ((0, 1), (1, 1)): d - 1,
        ((0, 1), (2, 1)): d - 1,
        ((0, 1), (3, 1)): d - 1,
        ((0,), (2,)): d - 1,
        ((1,), (1,)): d - 1,
    }
    edge_map = WeightedEdgeMap(d, 2, {MultiHyperedge(v, s): w for (v, s), w in weights.items()})
    check_corrupted_tables(edge_map, random.Random(f"corrupt:{d}"))


@pytest.mark.parametrize("d,n", [(17, 2), (40, 2), (64, 2), (17, 3)])
def test_verify_reports_the_mismatches_of_a_corrupted_many_row_table(d, n):
    # Supports with up to d - 1 distinct rows on one vertex, summed in
    # batches of one-byte lanes.
    check_corrupted_tables(many_row_map(d, n), random.Random(f"corrupt:many:{d}:{n}"))


# Past d = 64 a table is two-byte lanes, which the numpy layers read and
# write: build_state against the entry-by-entry table, and apply_generator
# (on the map's state and on a random table) and correction_exponents
# against numpy broadcasts.
@pytest.mark.parametrize("d", [65, 101, 256])
def test_two_byte_tables_through_the_numpy_layers(d):
    n, rng = 2, random.Random(f"two-byte:{d}")
    pool = enumerate_multihyperedges(n, d, max_arity=2)
    edge_map = WeightedEdgeMap(d, n, {e: rng.randrange(1, d) for e in rng.sample(pool, 6)})
    state = build_state(edge_map)
    assert state.table.tolist() == phase_table_of_map(edge_map)
    noise = pf(d, n, [rng.randrange(d) for _ in range(d**n)])
    for k in range(n):
        for table in (state, noise):
            expected = numpy_generated(edge_map, table.table, k)
            assert apply_generator(table, edge_map, k).table.tolist() == expected.tolist()
    zeros = np.zeros(d**n, dtype=np.int64)
    for edge, weight in edge_map.items():
        for k in edge.vertices:
            moved = numpy_generated(WeightedEdgeMap(d, n, {edge: weight}), zeros, k)
            expected = np.roll(moved.reshape((d,) * n), 1, axis=k).reshape(-1)
            assert correction_exponents(edge, weight, k, d, n).tolist() == expected.tolist()


def check_corrupted_tables(edge_map, rng):
    """``vertex_checks`` on the map's table with 1, 3 and half of its
    entries changed, against ``numpy_generated``."""
    d, n = edge_map.d, edge_map.n
    table = np.frombuffer(edge_map_table(edge_map), dtype=f"<u{lane_width(d)}").astype(np.int64)
    for changed in (1, 3, d**n // 2):
        corrupted = table.copy()
        for index in rng.sample(range(d**n), changed):
            corrupted[index] = (corrupted[index] + rng.randrange(1, d)) % d
        lanes = corrupted.astype(f"<u{lane_width(d)}").tobytes()
        checks = vertex_checks(edge_map, lanes)
        for k, check in enumerate(checks):
            expected = np.nonzero(numpy_generated(edge_map, corrupted, k) != corrupted)[0]
            assert (check.vertex, check.mismatch_indices) == (k, tuple(expected.tolist()))
            assert check.stabilized is (expected.size == 0)
        assert not all(check.stabilized for check in checks)
