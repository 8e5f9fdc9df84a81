import json
import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraphs import counting, diagonals, states
from quditgraphs.counting import SizeLimit
from quditgraphs.diagonals import dense_blocks, edge_terms, gate_table
from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap, hyperedge, phase_table
from quditgraphs.states import (
    DenseState,
    DimensionMismatch,
    PhaseFunction,
    _from_lanes,
    _lanes,
    build_state,
    digits_of,
    index_of,
    states_equal,
    to_dense,
)

from helpers import dense_simulate, phase_table_of_map, random_edge_map


def table(state):
    return list(int(x) for x in state.table)


def phases_from_dict(payload):
    return PhaseFunction(*phase_table(payload))


def plus_state(n, d):
    """|+_d>^{(x)n}: the state of the empty map, the all-zero table."""
    return build_state(WeightedEdgeMap(d, n, {}))


def apply_gate(state, edge, power):
    """The edge's gate ``power`` times on a state: the kernel's term added
    to the state's table as ``base``."""
    d, n = state.d, state.n
    table = gate_table(d, n, edge_terms([(edge, power)], d), base=_lanes(state))
    return _from_lanes(d, n, table)


def text_export(state):
    """The --dense text of a state's table, in blocks."""
    return dense_blocks(state.d, state.n, state.table.tolist())


def unique_export(state):
    """The text export as an amplitude array once gave it: every amplitude
    computed, and each distinct one, told apart by its 16 bytes, formatted
    once."""
    amplitudes = np.exp(2j * np.pi * state.table / state.d) * state.d ** (-state.n / 2)
    distinct, which = np.unique(amplitudes.view("V16"), return_inverse=True)
    texts = [f"{a.real:.17g} {a.imag:.17g}" for a in distinct.view(np.complex128).tolist()]
    return "".join(f"{i} {texts[j]}\n" for i, j in enumerate(which.reshape(-1).tolist()))


def random_table(rng, d, n):
    return PhaseFunction(d, n, rng.integers(0, d, d**n))


class TestPhaseFunctionEntries:
    @pytest.mark.parametrize(
        "d,entries,dtype",
        [
            (2, [0, 0.5], "float64"),
            (3, np.array([0, 1.9, 2.2]), "float64"),
            (2, [0.0, 1.0], "float64"),
            (2, ["0", "1"], "<U1"),
            (2, [False, True], "bool"),
            (2, np.array([0, 1], dtype=object), "object"),
            (2, [0, 1j], "complex128"),
        ],
    )
    def test_non_integer_table_refused(self, d, entries, dtype):
        with pytest.raises(ValueError) as exc:
            PhaseFunction(d, 1, entries)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"table entries must be integers, got dtype {dtype}"

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
    def test_integer_tables_become_int64(self, dtype):
        state = PhaseFunction(3, 1, np.array([0, 1, 2], dtype=dtype))
        assert state.table.dtype == np.int64 and table(state) == [0, 1, 2]

    @pytest.mark.parametrize(
        "d,n,entries,message",
        [
            (1, 1, [0], "need d >= 2 and n >= 1"),
            (3, 0, [0], "need d >= 2 and n >= 1"),
            (3, 2, [0] * 8, "table must have d^n = 9 entries"),
            (3, 1, [[0, 1, 2]], "table must have d^n = 3 entries"),
            (3, 1, [0, 1, 3], "table entries must lie in [0, d)"),
            (3, 1, [0, -1, 2], "table entries must lie in [0, d)"),
        ],
    )
    def test_shape_and_range_refused(self, d, n, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PhaseFunction(d, n, np.array(entries))

    def test_equality_with_a_non_state_is_not_implemented(self):
        state = PhaseFunction(2, 1, [0, 1])
        assert state.__eq__([0, 1]) is NotImplemented
        assert state != [0, 1] and state != "state"


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


class TestGateOnTable:
    def test_qubit_cz(self):
        state = apply_gate(plus_state(2, 2), hyperedge(0, 1), 1)
        assert table(state) == [0, 0, 0, 1]

    def test_decorated_pair_gate(self):
        state = apply_gate(plus_state(2, 3), MultiHyperedge((0, 1), (1, 2)), 1)
        expected = [i0 * i1**2 % 3 for i0, i1 in product(range(3), repeat=2)]
        assert table(state) == expected
        assert state.table[index_of((2, 2), 3)] == 2

    def test_zero_power_is_identity(self):
        start = apply_gate(plus_state(2, 3), hyperedge(0), 2)
        assert apply_gate(start, hyperedge(0, 1), 0) == start

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="references a vertex >= 2"):
            WeightedEdgeMap(2, 2, {hyperedge(0, 2): 1})

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
                cycled = apply_gate(cycled, edge, 1)
            assert cycled == state


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
        assert table(build_state(WeightedEdgeMap(2, 1, {}))) == [0, 0]
        assert table(build_state(WeightedEdgeMap(3, 2, {}))) == [0] * 9

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
                folded = apply_gate(folded, edge, weight)
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
                forward = apply_gate(forward, edge, m)
            backward = plus_state(n, d)
            for edge, m in reversed(gates):
                backward = apply_gate(backward, edge, m)
            assert forward == backward


class TestDense:
    @pytest.mark.parametrize("amplitudes", [[1.0], [0.5] * 4, [[0.5, 0.5], [0.5, 0.5]]])
    def test_amplitude_count_refused(self, amplitudes):
        with pytest.raises(ValueError, match=r"^amplitude count must be d\^n$"):
            DenseState(2, 1, amplitudes)

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

    @pytest.mark.parametrize("d,n", [*product(range(2, 17), range(1, 5)), (4093, 1)])
    def test_amplitudes_are_bitwise_the_per_entry_formula(self, d, n):
        state = random_table(np.random.default_rng(d * 10 + n), d, n)
        formula = np.exp(2j * np.pi * state.table / d) * d ** (-n / 2)
        looked_up = to_dense(state).amplitudes
        assert np.array_equal(looked_up.view("V16"), formula.view("V16"))

    def test_text_export_format(self):
        text = "".join(dense_blocks(2, 1, [0, 1]))
        lines = text.strip().split("\n")
        assert lines[0].split() == ["0", f"{2 ** -0.5:.17g}", "0"]
        assert lines[1].split()[0] == "1"

    @pytest.mark.parametrize("d,sizes", [(d, range(1, 5)) for d in range(2, 17)] + [(4093, [1])])
    def test_text_export_matches_the_unique_export(self, d, sizes, monkeypatch):
        # Blocks of 7 lines: a boundary inside every table past 7 entries.
        monkeypatch.setattr(diagonals, "_DENSE_BLOCK_LINES", 7)
        rng = np.random.default_rng(d)
        for n in sizes:
            state = random_table(rng, d, n)
            blocks = list(text_export(state))
            full, rest = divmod(d**n, 7)
            assert [block.count("\n") for block in blocks] == [7] * full + [rest] * (rest > 0)
            assert "".join(blocks) == unique_export(state)

    def test_text_export_streams_in_blocks(self, monkeypatch):
        state = build_state(random_edge_map(random.Random(7), 3, 2))
        whole = "".join(text_export(state))
        monkeypatch.setattr(diagonals, "_DENSE_BLOCK_LINES", 4)
        blocks = list(text_export(state))
        assert [block.count("\n") for block in blocks] == [4, 4, 1]
        assert "".join(blocks) == whole

    @pytest.mark.parametrize(
        "make,source,name",
        [
            (to_dense, states, "_amplitudes"),
            (lambda state: next(text_export(state)), diagonals, "amplitude"),
        ],
        ids=["to_dense", "dense_blocks"],
    )
    def test_norm_is_checked_before_any_output(self, make, source, name, monkeypatch):
        # ``source.name`` is the amplitude formula that ``make`` reads.
        exact = getattr(source, name)
        state = build_state(random_edge_map(random.Random(8), 5, 3))
        monkeypatch.setattr(source, name, lambda *args: exact(*args) * (1 + 1e-13))
        make(state)  # a deviation of about 2e-13 passes
        monkeypatch.setattr(source, name, lambda *args: exact(*args) * (1 + 1e-11))
        with pytest.raises(ValueError, match=r"^state norm deviates from 1 by 2\.000e-11$"):
            make(state)


class TestEquality:
    def test_global_phase_offset_ignored(self):
        a = PhaseFunction(3, 1, np.array([0, 1, 2]))
        b = PhaseFunction(3, 1, np.array([2, 0, 1]))
        assert states_equal(a, b)

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
        payload = {"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}
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


class TestTableLimitBoundary:
    """A d^n table is refused at a limit of exactly d^n entries and built at
    d^n + 1."""

    @staticmethod
    def refused_at_size(monkeypatch, entries, make):
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", entries)
        with pytest.raises(SizeLimit):
            make()
        monkeypatch.setattr(counting, "DEFAULT_TABLE_LIMIT", entries + 1)
        return make()

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (5, 2), (7, 1)])
    def test_phase_table_payload(self, monkeypatch, d, n):
        phases = [i % d for i in range(d**n)]
        payload = {"d": d, "n": n, "phases": phases}
        state = self.refused_at_size(monkeypatch, d**n, lambda: phases_from_dict(payload))
        assert table(state) == phases

    def test_build_state_and_dense(self, monkeypatch):
        emap = WeightedEdgeMap(3, 2, {MultiHyperedge((0, 1), (1, 2)): 1})
        state = self.refused_at_size(monkeypatch, 9, lambda: build_state(emap))
        assert self.refused_at_size(monkeypatch, 9, lambda: to_dense(state)).n == 2
