import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap, hyperedge
from quditgraphs.states import (
    DenseState,
    DimensionMismatch,
    PhaseFunction,
    SizeLimit,
    VertexOutOfRange,
    apply_multi_cz,
    apply_uv,
    build_state,
    canonicalize,
    dense_text,
    digits_of,
    index_of,
    monomial_coefficients,
    phases_from_dict,
    phases_to_dict,
    plus_state,
    states_equal,
    to_dense,
)

from helpers import dense_simulate, phase_table_of_map, random_edge_map


def table(state):
    return list(int(x) for x in state.table)


class TestIndexing:
    def test_first_digit_most_significant(self):
        assert index_of((1, 0), 3) == 3
        assert index_of((0, 1), 3) == 1
        assert digits_of(5, 3, 2) == (1, 2)

    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, d, n, data):
        idx = data.draw(st.integers(0, d**n - 1))
        assert index_of(digits_of(idx, d, n), d) == idx


class TestPlusState:
    def test_single_qubit(self):
        assert table(plus_state(1, 2)) == [0, 0]

    def test_two_qutrits(self):
        assert table(plus_state(2, 3)) == [0] * 9

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            plus_state(3, 256)

    def test_custom_limit(self):
        with pytest.raises(SizeLimit):
            plus_state(2, 3, limit=9)
        assert plus_state(2, 3, limit=10).n == 2


class TestApplyMultiCz:
    def test_qubit_cz(self):
        state = apply_multi_cz(plus_state(2, 2), hyperedge(0, 1), 1)
        assert table(state) == [0, 0, 0, 1]

    def test_decorated_pair_gate(self):
        state = apply_multi_cz(plus_state(2, 3), MultiHyperedge((0, 1), (1, 2)), 1)
        expected = [i0 * i1**2 % 3 for i0, i1 in product(range(3), repeat=2)]
        assert table(state) == expected
        assert state.entry((2, 2)) == 2

    def test_zero_power_is_identity(self):
        start = apply_multi_cz(plus_state(2, 3), hyperedge(0), 2)
        assert apply_multi_cz(start, hyperedge(0, 1), 0) == start

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            apply_multi_cz(plus_state(2, 2), hyperedge(0, 2), 1)

    def test_gate_has_period_d(self):
        rng = random.Random(4242)
        for _ in range(10):
            d, n = rng.choice([2, 3, 4, 5, 6]), rng.randint(1, 3)
            emap = random_edge_map(rng, d, n)
            state = build_state(emap)
            verts = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            edge = MultiHyperedge(verts, tuple(rng.randint(1, d - 1) for _ in verts))
            cycled = state
            for _ in range(d):
                cycled = apply_multi_cz(cycled, edge, 1)
            assert cycled == state


class TestApplyUv:
    def test_linear_phase_is_ring_gate(self):
        state = apply_uv(plus_state(1, 3), 0, monomial_coefficients(1))
        assert table(state) == [0, 1, 2]

    def test_square_phase_mod4(self):
        state = apply_uv(plus_state(1, 4), 0, monomial_coefficients(2))
        assert table(state) == [pow(k, 2, 4) for k in range(4)]

    def test_zero_polynomial_is_identity(self):
        start = plus_state(2, 3)
        assert apply_uv(start, 1, (0, 0, 0)) == start

    def test_constant_term_shifts_every_entry(self):
        state = apply_uv(plus_state(1, 5), 0, (3,))
        assert table(state) == [3] * 5
        assert states_equal(state, plus_state(1, 5))


class TestBuildState:
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
        assert table(build_state(emap)) == [0, 1, 0, 1, 1, 0, 0, 1, 0]

    def test_empty_map_is_plus_state(self):
        assert build_state(WeightedEdgeMap(2, 1, {})) == plus_state(1, 2)

    def test_single_ring_edge(self):
        emap = WeightedEdgeMap(2, 1, {hyperedge(0): 1})
        assert table(build_state(emap)) == [0, 1]

    def test_matches_gate_fold(self):
        rng = random.Random(99)
        for _ in range(15):
            d, n = rng.choice([2, 3, 4, 5]), rng.randint(1, 3)
            emap = random_edge_map(rng, d, n)
            folded = plus_state(n, d)
            edges = list(emap.items())
            rng.shuffle(edges)
            for edge, weight in edges:
                folded = apply_multi_cz(folded, edge, weight)
            assert folded == build_state(emap)

    def test_matches_entrywise_oracle(self):
        rng = random.Random(123)
        for _ in range(10):
            emap = random_edge_map(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 3))
            assert table(build_state(emap)) == phase_table_of_map(emap)

    def test_diagonal_gates_commute(self):
        rng = random.Random(31)
        for _ in range(10):
            d, n = rng.choice([2, 3, 5]), rng.randint(2, 3)
            gates = []
            for _ in range(rng.randint(2, 6)):
                verts = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                exps = tuple(rng.randint(1, d - 1) for _ in verts)
                gates.append((MultiHyperedge(verts, exps), rng.randrange(d)))
            forward = plus_state(n, d)
            for edge, m in gates:
                forward = apply_multi_cz(forward, edge, m)
            backward = plus_state(n, d)
            for edge, m in reversed(gates):
                backward = apply_multi_cz(backward, edge, m)
            assert forward == backward


class TestDense:
    def test_plus_amplitudes(self):
        dense = to_dense(plus_state(1, 2))
        assert np.allclose(dense.amplitudes, [2**-0.5, 2**-0.5])

    def test_sign_flip(self):
        dense = to_dense(PhaseFunction(2, 1, np.array([0, 1])))
        assert np.allclose(dense.amplitudes, [2**-0.5, -(2**-0.5)])

    def test_worked_qutrit_amplitudes(self):
        state = PhaseFunction(3, 2, np.array([0, 1, 0, 1, 1, 0, 0, 1, 0]))
        dense = to_dense(state)
        omega = np.exp(2j * np.pi / 3)
        expected = np.array([omega ** int(x) for x in state.table]) / 3
        assert np.allclose(dense.amplitudes, expected, atol=1e-12)

    def test_norm_and_magnitudes(self):
        rng = random.Random(7)
        for _ in range(10):
            emap = random_edge_map(rng, rng.choice([2, 3, 4]), rng.randint(1, 3))
            dense = to_dense(build_state(emap))
            assert abs(np.sum(np.abs(dense.amplitudes) ** 2) - 1.0) < 1e-12
            scale = emap.d ** (-emap.n / 2)
            assert np.max(np.abs(np.abs(dense.amplitudes) - scale)) < 1e-12

    def test_agrees_with_matrix_simulator(self):
        rng = random.Random(606)
        for _ in range(10):
            emap = random_edge_map(rng, rng.choice([2, 3, 4]), rng.randint(1, 3))
            ours = to_dense(build_state(emap)).amplitudes
            oracle = dense_simulate(emap)
            assert np.max(np.abs(ours - oracle)) < 1e-10

    def test_text_export_format(self):
        text = dense_text(to_dense(PhaseFunction(2, 1, np.array([0, 1]))))
        lines = text.strip().split("\n")
        assert lines[0].split() == ["0", f"{2 ** -0.5:.17g}", "0"]
        assert lines[1].split()[0] == "1"

    def test_text_export_keeps_the_sign_of_zero(self):
        half = [complex(0.5, 0.0), complex(0.5, -0.0), complex(0.5, 0.0), complex(0.5, 0.0)]
        state = DenseState(2, 2, np.array(half))
        per_line = "\n".join(
            f"{i} {amp.real:.17g} {amp.imag:.17g}" for i, amp in enumerate(state.amplitudes)
        ) + "\n"
        assert dense_text(state) == per_line
        assert dense_text(state).splitlines()[1] == "1 0.5 -0"


class TestEquality:
    def test_global_phase_offset_ignored(self):
        a = PhaseFunction(3, 1, np.array([0, 1, 2]))
        b = PhaseFunction(3, 1, np.array([2, 0, 1]))
        assert states_equal(a, b)
        assert canonicalize(b) == a

    def test_distinct_tables_differ(self):
        a = PhaseFunction(3, 1, np.array([0, 1, 0]))
        b = PhaseFunction(3, 1, np.array([0, 2, 0]))
        assert not states_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            states_equal(plus_state(1, 2), plus_state(1, 3))

    def test_identical_states(self):
        s = plus_state(2, 3)
        assert states_equal(s, s)


class TestPhaseSerialization:
    def test_round_trip(self):
        state = PhaseFunction(3, 2, np.array([0, 1, 0, 1, 1, 0, 0, 1, 0]))
        payload = phases_to_dict(state)
        assert payload == {"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}
        assert phases_from_dict(json.loads(json.dumps(payload))) == state

    def test_length_checked(self):
        from quditgraphs.graphs import SchemaError

        with pytest.raises(SchemaError) as exc:
            phases_from_dict({"d": 2, "n": 2, "phases": [0, 0, 0]})
        assert exc.value.path == "phases"

    def test_entry_range_checked(self):
        from quditgraphs.graphs import SchemaError

        with pytest.raises(SchemaError) as exc:
            phases_from_dict({"d": 2, "n": 1, "phases": [0, 2]})
        assert exc.value.path == "phases[1]"

    @pytest.mark.parametrize(
        "bad,message",
        [
            (True, "expected an integer, got True"),
            (1.0, "expected an integer, got 1.0"),
            ("1", "expected an integer, got '1'"),
            (-1, "entry out of range [0, 3)"),
            (3, "entry out of range [0, 3)"),
            (2**70, "entry out of range [0, 3)"),
        ],
    )
    def test_first_bad_entry_is_named(self, bad, message):
        from quditgraphs.graphs import SchemaError

        phases = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        phases[4] = bad
        phases[7] = -(2**70)
        with pytest.raises(SchemaError) as exc:
            phases_from_dict({"d": 3, "n": 2, "phases": phases})
        assert (exc.value.path, str(exc.value)) == ("phases[4]", f"phases[4]: {message}")

    def test_int_subclass_entries_accepted(self):
        class Level(int):
            pass

        state = phases_from_dict({"d": 2, "n": 1, "phases": [Level(0), Level(1)]})
        assert state.table.tolist() == [0, 1]
