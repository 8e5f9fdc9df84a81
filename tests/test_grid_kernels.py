"""The byte-lane table kernel and the report against a per-index
evaluator, the Kronecker-power builder against numpy outer products, the
Kronecker pass against the list pass it replaced, the encoder against
``json.dumps``, and pinned CLI output.

The evaluator below reads every table entry off ``digits_of`` and ``pow``,
one index at a time, so it shares no array or list code with the kernel
under test. Tables too large for it are checked against numpy broadcasts.
"""

import hashlib
import json
import random
from itertools import repeat
from operator import add, mod, mul

import numpy as np
import pytest

from quditgraphs import diagonals
from quditgraphs.cli import _TEXT_RANGE, _any_int_digits, _encode, main
from quditgraphs.counting import (
    DEFAULT_TABLE_LIMIT,
    HYPERGRAPH,
    MULTIHYPERGRAPH,
    _digit_power_rows,
    _signed_triangle,
    smith_factor,
)
from quditgraphs.diagonals import (
    VertexOutOfRange,
    conjugation_report,
    edge_map_table,
    edge_reports,
    edge_terms,
    gate_table,
    verify,
)
from quditgraphs.lanes import (
    _CAPACITY,
    _CHUNK,
    _pack,
    _reduce_sum,
    _scale,
    kronecker_pass,
    lane_values,
    lane_width,
    power_rows,
)
from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap
from quditgraphs.stabilizers import apply_generator, correction_exponents
from quditgraphs.states import build_state, digits_of

from helpers import many_row_map

CELLS = [(d, n) for d in (2, 3, 4, 5, 6, 8) for n in (1, 2, 3, 4)]


def monomial_at(digits, edge, d):
    value = 1
    for v, s in zip(edge.vertices, edge.exponents):
        value = value * pow(digits[v], s, d) % d
    return value


def phase_at(digits, edge_map):
    return sum(w * monomial_at(digits, e, edge_map.d) for e, w in edge_map.items()) % edge_map.d


def correction_at(digits, edge, power, k, d):
    s_k = edge.exponents[edge.vertices.index(k)]
    step = pow((digits[k] - 1) % d, s_k, d) - pow(digits[k], s_k, d)
    rest = 1
    for v, s in zip(edge.vertices, edge.exponents):
        if v != k:
            rest = rest * pow(digits[v], s, d) % d
    return power * step * rest % d


def printed_at(digits, edge, power, k, d):
    rest = 1
    for v, s in zip(edge.vertices, edge.exponents):
        if v != k:
            rest = rest * pow(digits[v], s, d) % d
    return power * (d - 1) * rest % d


def generated_at(index, edge_map, k):
    """Entry ``index`` of g_k applied to the state's table: the diagonal
    corrections are added, then X_k reads the entry at i_k + 1."""
    d, n = edge_map.d, edge_map.n
    digits = list(digits_of(index, d, n))
    digits[k] = (digits[k] + 1) % d
    value = phase_at(digits, edge_map)
    for edge, weight in edge_map.items():
        if k in edge.vertices:
            value += correction_at(digits, edge, weight, k, d)
    return value % d


def random_map(rng, d, n, count=10):
    """Up to ``count`` random weighted multihyperedges, arities cycling through 1..n."""
    weights = {}
    for i in range(count):
        support = tuple(sorted(rng.sample(range(n), 1 + i % n)))
        exponents = tuple(rng.randrange(1, d) for _ in support)
        weights[MultiHyperedge(support, exponents)] = rng.randrange(1, d)
    return WeightedEdgeMap(d, n, weights)


def support_maps(rng, d, n):
    """Maps whose edges share supports: several edges on each support,
    a chain of nested supports with siblings, every edge on one support,
    and a single edge."""
    def edges_on(support, count):
        exponents = (tuple(rng.randrange(1, d) for _ in support) for _ in range(count))
        return {MultiHyperedge(support, e): rng.randrange(1, d) for e in exponents}

    full = tuple(range(n))
    several = {}
    for support in [(0,), full, (n - 1,), full[1:] or full, (0, n - 1) if n > 1 else full]:
        several.update(edges_on(support, 3))
    nested = {}
    for t in range(1, n + 1):
        nested.update(edges_on(full[:t], 2))
        nested.update(edges_on(full[t - 1 : t], 1))
    shared = edges_on(full[n // 2 :], 6)
    single = edges_on((rng.randrange(n),), 1)
    return [WeightedEdgeMap(d, n, w) for w in (several, nested, shared, single)]


def grid_maps(rng, d, n):
    """Two random maps, then the maps whose edges share supports. Each is
    drawn when the test reaches it, after the powers drawn for the one
    before."""
    yield random_map(rng, d, n)
    yield random_map(rng, d, n)
    yield from support_maps(rng, d, n)


@pytest.mark.parametrize("d,n", CELLS)
def test_grid_kernels_match_per_index_evaluation(d, n):
    rng = random.Random(f"grid:{d}:{n}")
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    for edge_map in grid_maps(rng, d, n):
        state = build_state(edge_map)
        assert state.table.tolist() == [phase_at(x, edge_map) for x in every_digit]
        for edge in edge_map.weights:
            monomial = lane_values(gate_table(d, n, edge_terms([(edge, 1)], d)), d)
            assert list(monomial) == [monomial_at(x, edge, d) for x in every_digit]
            power = rng.randrange(-d, 2 * d)
            for k in edge.vertices:
                assert correction_exponents(edge, power, k, d, n).tolist() == [
                    correction_at(x, edge, power, k, d) for x in every_digit
                ]
        checks = verify(edge_map)
        for k in range(n):
            moved = [generated_at(i, edge_map, k) for i in range(d**n)]
            assert apply_generator(state, edge_map, k).table.tolist() == moved
            mismatches = tuple(i for i, f in enumerate(state.table.tolist()) if moved[i] != f)
            assert (checks[k].vertex, checks[k].stabilized, checks[k].mismatch_indices) == (
                k,
                not mismatches,
                mismatches,
            )


# Every (d, n) with d = 2..9, n = 1..6 and at most 4096 entries.
SMALL_CELLS = [(d, n) for d in range(2, 10) for n in range(1, 7) if d**n <= 4096]


@pytest.mark.parametrize("d,n", SMALL_CELLS)
def test_tables_match_per_index_evaluation(d, n):
    rng = random.Random(f"table:{d}:{n}")
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    edge_map = random_map(rng, d, n, count=12)
    assert list(lane_values(edge_map_table(edge_map), d)) == [
        phase_at(x, edge_map) for x in every_digit
    ]
    assert all(check.stabilized for check in verify(edge_map))


def narrow_lane_map(d, weights):
    """A d, n = 2 map from {(vertices, exponents): weight}."""
    return WeightedEdgeMap(d, 2, {MultiHyperedge(v, s): w for (v, s), w in weights.items()})


# Maps near the one-byte bound (four values below d sum below 256 up to
# d = 64): two or three distinct first rows on the span (0, 1), with edges
# on vertex 0 or 1 alone, so that the span's last sum adds several grids,
# the next span and the table so far, and verify adds the state as well.
NARROW_LANE_MAPS = [
    narrow_lane_map(
        70, {((0, 1), (1, 1)): 1, ((0, 1), (2, 1)): 1, ((0, 1), (3, 1)): 1, ((1,), (1,)): 1}
    ),
    *(
        narrow_lane_map(
            d,
            {
                ((0, 1), (1, 1)): d - 1,
                ((0, 1), (2, 3)): d - 1,
                ((0, 1), (5, 1)): d - 1,
                ((0,), (2,)): d - 1,
                ((1,), (1,)): d - 1,
            },
        )
        for d in (64, 65, 86)
    ),
]


@pytest.mark.parametrize("edge_map", NARROW_LANE_MAPS, ids=lambda m: f"d{m.d}")
def test_narrow_lane_tables_match_per_index_evaluation(edge_map):
    d, n = edge_map.d, edge_map.n
    table = edge_map_table(edge_map)
    phases = [phase_at(digits_of(i, d, n), edge_map) for i in range(d**n)]
    assert list(lane_values(table, d)) == phases
    for k, check in enumerate(verify(edge_map)):
        moved = [generated_at(i, edge_map, k) for i in range(d**n)]
        assert list(lane_values(diagonals.generated_table(edge_map, k, table), d)) == moved
        mismatches = tuple(i for i, f in enumerate(phases) if moved[i] != f)
        assert (check.vertex, check.stabilized, check.mismatch_indices) == (k, True, mismatches)


# Maps whose supports carry up to d - 1 distinct rows on one vertex: one-byte
# lanes while four values below d fit, so a support's or a span's grids are
# summed in batches of 255 // (d - 1). At n = 3 the middle vertex's rows are
# summed inside the support recursion as well.
MANY_ROW_MAPS = [*(many_row_map(d, 2) for d in (17, 40, 64)), many_row_map(17, 3)]


@pytest.mark.parametrize("edge_map", MANY_ROW_MAPS, ids=lambda m: f"d{m.d}-n{m.n}")
def test_many_row_tables_match_per_index_evaluation(edge_map, monkeypatch):
    d, n = edge_map.d, edge_map.n
    built = []
    assert widths_of(monkeypatch, lambda: built.append(edge_map_table(edge_map))) == {1}
    phases = [phase_at(digits_of(i, d, n), edge_map) for i in range(d**n)]
    assert list(lane_values(built[0], d)) == phases
    for k, check in enumerate(verify(edge_map)):
        moved = [generated_at(i, edge_map, k) for i in range(d**n)]
        assert list(lane_values(diagonals.generated_table(edge_map, k, built[0]), d)) == moved
        assert moved == phases
        assert (check.vertex, check.stabilized, check.mismatch_indices) == (k, True, ())


# Each side of every width boundary of the lane sum: lane_width(d) widens
# from one byte to two at d = 64/65 and from two to four at d = 8192/8193,
# and d = 256/257 is the end of the translates. d = 32768/32769, deep in the
# four-byte range, sum batches of 65538 and 65535 tables.
REDUCE_MODULI = [2, 3, 64, 65, 256, 257, 8192, 8193, 32768, 32769]


@pytest.mark.parametrize("d", REDUCE_MODULI)
def test_reduce_sum_matches_per_lane_sums_at_every_width_boundary(d):
    # Part counts on both sides of one batch and past three, tables of d - 1
    # everywhere (the largest sums) and random ones, on both sides of a
    # chunk, handed over as a list and as a generator. A batch of four-byte
    # lanes holds tens of thousands of tables, so counts past 2048 run on
    # tables of three lanes.
    rng = random.Random(f"reduce:{d}")
    width = lane_width(d)
    batch = _CAPACITY[width] // (d - 1)
    pools = {}
    for lanes in (_CHUNK // width - 1, _CHUNK // width + 1, 3):
        pools[lanes] = [[d - 1] * lanes], [rng.choices(range(d), k=lanes) for _ in range(3)]
    for count in (1, 2, batch - 1, batch, batch + 1, 3 * batch + 1):
        for lanes in (3,) if count > 2048 else (_CHUNK // width - 1, _CHUNK // width + 1):
            for pool in pools[lanes]:
                tables = [_pack(values, d) for values in pool]
                parts = [tables[i % len(tables)] for i in range(count)]
                uses = [len(range(j, count, len(tables))) for j in range(len(tables))]
                expected = [sum(map(mul, uses, lane)) % d for lane in zip(*pool)]
                for given in (parts, (part for part in parts)):
                    total = _reduce_sum(given, d)
                    assert list(lane_values(total, d)) == expected, (count, lanes)


def span_at(digits, edges, first, d):
    """The sum mod d of the edges on one span, read at span digits."""
    full = [0] * first + list(digits)
    return sum(w * monomial_at(full, e, d) for e, w in edges) % d


@pytest.mark.parametrize("d,n", CELLS)
def test_supports_are_spread_over_their_spans(d, n, monkeypatch):
    # A support's grid is spread over the span from its first to its last
    # vertex, and there it adds up to the support's edge terms.
    spread = []

    def recording(grid, support, d_):
        out = original(grid, support, d_)
        spread.append((support, out))
        return out

    original = diagonals._spread
    monkeypatch.setattr(diagonals, "_spread", recording)
    rng = random.Random(f"spread:{d}:{n}")
    for edge_map in grid_maps(rng, d, n):
        k = rng.randrange(n)
        for items in (
            list(edge_map.items()),
            [(e, w) for e, w in edge_map.items() if k in e.vertices],
        ):
            spread.clear()
            gate_table(d, n, edge_terms(items, d))
            on_support = {}
            for edge, weight in items:
                on_support.setdefault(edge.vertices, []).append((edge, weight))
            sums = {}
            for support, out in spread:
                values = lane_values(out, d)
                sums[support] = list(map(sum, zip(sums.get(support, [0] * len(values)), values)))
            assert sorted(sums) == sorted(on_support)
            for support, total in sums.items():
                first, last = support[0], support[-1]
                span = [digits_of(i, d, last - first + 1) for i in range(d ** (last - first + 1))]
                expected = [span_at(x, on_support[support], first, d) for x in span]
                assert [x % d for x in total] == expected


def numpy_table(edge_map):
    """The map's table by numpy broadcasts, one edge at a time."""
    d, n = edge_map.d, edge_map.n
    table = np.zeros((d,) * n, dtype=np.int64)
    for edge, weight in edge_map.items():
        term = np.full((1,) * n, weight, dtype=np.int64)
        for v, s in zip(edge.vertices, edge.exponents):
            row = np.array([pow(i, s, d) for i in range(d)], dtype=np.int64)
            term = term * row.reshape((1,) * v + (d,) + (1,) * (n - 1 - v)) % d
        table = (table + term) % d
    return table.reshape(-1)


def widths_of(monkeypatch, make):
    """The lane widths that the support grids of ``make()`` ran at: the
    bytes per entry of each grid."""
    widths = set()
    original = diagonals._support_grid

    def recording(terms, d):
        grid = original(terms, d)
        widths.add(len(grid) // d ** len(terms[0][0]))
        return grid

    monkeypatch.setattr(diagonals, "_support_grid", recording)
    make()
    monkeypatch.undo()
    return widths


def test_lane_widths_1_2_and_4(monkeypatch):
    # One byte while four values below d sum below 256, two past that, four
    # past 2^15; each width gives the table the numpy broadcasts give. At
    # d = 2 the 4095 supports are summed in batches of one-byte lanes.
    rng = random.Random("widths")
    every_support = {
        MultiHyperedge(tuple(v for v in range(12) if mask >> v & 1), (1,) * bin(mask).count("1")): 1
        for mask in range(1, 2**12)
    }
    cases = [
        (WeightedEdgeMap(2, 12, every_support), 1),
        (random_map(rng, 64, 3, count=3), 1),
        (random_map(rng, 65, 3, count=3), 2),
        (random_map(rng, 257, 2, count=6), 2),
        (random_map(rng, 4093, 2, count=3), 2),
        (random_map(rng, 40009, 1, count=3), 4),
    ]
    for edge_map, width in cases:
        table = []
        widths = widths_of(monkeypatch, lambda: table.append(edge_map_table(edge_map)))
        assert widths == {width}
        assert len(table[0]) == edge_map.d**edge_map.n * width
        assert list(lane_values(table[0], edge_map.d)) == numpy_table(edge_map).tolist()
    assert all(check.stabilized for check in verify(cases[2][0]))


def test_dense_amplitudes_are_bitwise_numpys_at_every_d_up_to_4096():
    # Equal bits print equal texts: the --dense line of phase f is the one
    # numpy's amplitude array gave, for every d <= 4096 and every n with
    # d^n < 2^24.
    for d in range(2, 4097):
        for n in range(1, 25):
            if d**n >= 2**24:
                break
            ours = np.array(list(map(diagonals.amplitude, range(d), repeat(d, d), repeat(n, d))))
            formula = np.exp(2j * np.pi * np.arange(d) / d) * d ** (-n / 2)
            assert np.array_equal(ours.view(np.int64), formula.view(np.int64)), (d, n)


def _check_report(report, edge, power, k, d, every_digit):
    exact = [correction_at(x, edge, power, k, d) for x in every_digit]
    printed = [printed_at(x, edge, power, k, d) for x in every_digit]
    mismatches = tuple(i for i, (a, b) in enumerate(zip(exact, printed)) if a != b)
    assert report.exact_diagonal == tuple(exact)
    assert report.printed_diagonal == tuple(printed)
    assert report.mismatch_indices == mismatches
    assert report.holds is (not mismatches)
    s_k = edge.exponents[edge.vertices.index(k)]
    assert (report.edge, report.power, report.vertex, report.target_exponent) == (
        edge,
        power % d,
        k,
        s_k,
    )


@pytest.mark.parametrize("d,n", CELLS)
def test_list_report_matches_per_index_evaluation(d, n):
    rng = random.Random(f"report:{d}:{n}")
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    for edge in random_map(rng, d, n).weights:
        # A negative power, one in Z_d and one past it.
        for power in (rng.randrange(-2 * d, 0), rng.randrange(d), rng.randrange(d, 3 * d)):
            for k in edge.vertices:
                report = conjugation_report(edge, power, k, d, n)
                _check_report(report, edge, power, k, d, every_digit)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 3), (6, 2)])
def test_edge_reports_run_every_power_then_every_target(d, n):
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    rng = random.Random(f"edge-reports:{d}:{n}")
    for edge in random_map(rng, d, n, count=4).weights:
        reports = list(edge_reports(edge, d, n))
        assert [(r.power, r.vertex) for r in reports] == [
            (m, k) for m in range(d) for k in edge.vertices
        ]
        for report in reports:
            assert report == conjugation_report(edge, report.power, report.vertex, d, n)
            _check_report(report, edge, report.power, report.vertex, d, every_digit)


# Each bad (edge, power, k, d, n) with the exception type and text it raises:
# the vertex and edge checks first, then the modulus.
EDGE = MultiHyperedge((0, 1), (1, 2))
FAR_EDGE = MultiHyperedge((0, 4), (1, 2))
BAD_REPORTS = [
    ((EDGE, 1, 2, 3, 2), ValueError, f"vertex 2 not in edge {EDGE}"),
    ((FAR_EDGE, 1, 4, 3, 2), VertexOutOfRange, "vertex 4 out of range [0, 2)"),
    ((FAR_EDGE, 1, 4, 3, -1), VertexOutOfRange, "vertex 4 out of range [0, -1)"),
    ((EDGE, 1, 0, 3, 0), VertexOutOfRange, "vertex 0 out of range [0, 0)"),
    ((FAR_EDGE, 1, 0, 3, 2), VertexOutOfRange,
     "edge MultiHyperedge(vertices=(4,), exponents=(2,)) references a vertex >= 2"),
    ((EDGE, 1, 0, 0, 2), ValueError, "need d >= 1"),
    ((EDGE, 1, 1, 0, 2), ValueError, "need d >= 1"),
    ((EDGE, 1, 0, -2, 2), ValueError, "need d >= 1"),
]


@pytest.mark.parametrize("args,error,message", BAD_REPORTS)
def test_bad_report_inputs_raise_as_before(args, error, message):
    with pytest.raises(error) as raised:
        conjugation_report(*args)
    assert type(raised.value) is error and str(raised.value) == message


def test_report_at_d_1_is_one_zero_entry():
    report = conjugation_report(EDGE, 1, 0, 1, 2)
    assert (report.exact_diagonal, report.printed_diagonal, report.holds, report.power) == (
        (0,),
        (0,),
        True,
        0,
    )


@pytest.mark.parametrize(
    "edge,d,n",
    [
        (MultiHyperedge((0,), (3,)), 257, 1),
        (MultiHyperedge((0, 1), (5, 299)), 300, 2),
        (MultiHyperedge((0,), (4092,)), 4093, 1),
    ],
    ids=["257-1", "300-2", "4093-1"],
)
def test_reports_past_d_256_match_per_index_evaluation(edge, d, n):
    # Past d = 256 a power scales each diagonal lane by lane, not by a translate.
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    for power in (2, d - 1, -3):
        for k in edge.vertices:
            report = conjugation_report(edge, power, k, d, n)
            _check_report(report, edge, power, k, d, every_digit)


@pytest.mark.parametrize("d", [257, 4093])
def test_scale_past_d_256_is_a_product_per_lane(d):
    values = list(range(d)) + random.Random(f"scale:{d}").choices(range(d), k=1000)
    lanes = _pack(values, d)
    for c in (0, 1, 2, d - 1):
        assert list(lane_values(_scale(lanes, c, d), d)) == [c * x % d for x in values]


def reference_power_rows(matrix, picked, power, d):
    """Rows ``picked`` of matrix^{⊗power} mod d by numpy outer products, one
    Kronecker factor at a time, without building the power: the builder
    that ``power_rows`` replaced."""
    rows = np.ones((len(picked), 1), dtype=np.int64)
    for digit in np.unravel_index(np.array(picked, dtype=np.intp), (len(matrix),) * power):
        factor = matrix[digit]  # row f holds row digit[f] of matrix
        outer = rows[:, :, None] * factor[:, None, :]
        rows = outer.reshape(len(picked), rows.shape[1] * factor.shape[1]) % d
    return rows


def kronecker_bases(d):
    """W in both modes, Pascal's signed d x d matrix (every row of the factor
    U of U·W·V = diag(s!)) and the (d-1)x(d-1) block V[i][s] = i^s, as lists
    and as arrays."""
    multihypergraph = _digit_power_rows(d, MULTIHYPERGRAPH)
    array = np.array(multihypergraph, dtype=np.int64)
    u = _signed_triangle([1] * (d - 1), d, d)
    bases = {
        "W multihypergraph": (multihypergraph, array),
        "W hypergraph": (_digit_power_rows(d, HYPERGRAPH), array[:, :2]),
        "U": (u, np.array(u, dtype=np.int64)),
        "V": ([row[1:] for row in multihypergraph[1:]], array[1:, 1:]),
    }
    if d == 2:  # W's two columns in both modes
        del bases["W hypergraph"]
    return bases


@pytest.mark.parametrize("d", [*range(2, 10), 64, 65, 255, 256, 257, 4093])
def test_power_rows_match_numpy_outer_products(d):
    # Every power whose whole matrix stays under the table limit (up to 24
    # for V = [[1]] at d = 2); each time no rows, a few random rows in
    # random order, and every row when the power is small.
    rng = random.Random(f"power-rows:{d}")
    for name, (rows, array) in kronecker_bases(d).items():
        entries = len(rows) * len(rows[0])
        power = 1
        while entries**power < DEFAULT_TABLE_LIMIT and power <= 24:
            count = len(rows) ** power
            picks = [[], rng.sample(range(count), min(6, count))]
            if entries**power <= 4096:
                picks.append(list(range(count)))
            for picked in picks:
                lanes = power_rows(rows, picked, power, d)
                expected = reference_power_rows(array, picked, power, d).reshape(-1).tolist()
                assert list(lane_values(lanes, d)) == expected, (name, power, picked)
            power += 1
        assert power > 1, name


def reference_pass(matrix, flat, n, d):
    """matrix^{⊗n}·flat mod d on Python lists: the pass that
    ``kronecker_pass`` replaced in the solve. Each step applies the matrix
    to the last axis and puts the new axis first."""
    k = len(matrix[0])
    for _ in range(n):
        rows = len(flat) // k
        if rows < k:
            chunks = list(zip(*[iter(flat)] * k))
            flat = [sum(map(mul, row, chunk)) % d for row in matrix for chunk in chunks]
            continue
        columns = [flat[j::k] for j in range(k)]
        out = []
        for coefficients in matrix:
            total = None
            for c, column in zip(coefficients, columns):
                if c:
                    term = column if c == 1 else map(mul, column, repeat(c))
                    total = list(term) if total is None else list(map(add, total, term))
            out += repeat(0, rows) if total is None else map(mod, total, repeat(d))
        flat = out
    return flat


def pass_matrices(d, rng):
    """U and V of U·W·V = diag(s!) and W, in both modes, a matrix of d - 1
    everywhere (the largest lane sums), one of entries outside [0, d),
    random non-square ones and a 2 x 130 matrix of d - 1, whose 130 terms a
    block sums past one batch of two-byte lanes from d = 255 on."""
    matrices = {
        "full 3x3": [[d - 1] * 3 for _ in range(3)],
        "unreduced 3x3": [[rng.randrange(-2 * d, 2 * d) for _ in range(3)] for _ in range(3)],
    }
    for mode in (HYPERGRAPH, MULTIHYPERGRAPH):
        u, _, v = smith_factor(d, mode)
        matrices.update({f"U {mode}": u, f"V {mode}": v, f"W {mode}": _digit_power_rows(d, mode)})
    for m, k in [(2, 3), (3, 2), (5, 4)]:
        matrices[f"random {m}x{k}"] = [[rng.randrange(d) for _ in range(k)] for _ in range(m)]
    matrices["full 2x130"] = [[d - 1] * 130 for _ in range(2)]
    return matrices


# Each side of both width boundaries of the pass: its working lanes widen
# from one byte to two at d = 64/65, and past d = 256 its translates give
# way to a Python multiply per product. At d = 255 and 256 the 2 x 130
# matrix at n = 2 sums more terms than one batch of two-byte lanes holds.
PASS_MODULI = [*range(2, 18), 63, 64, 65, 66, 255, 256, 257, 300]


@pytest.mark.parametrize("d", PASS_MODULI)
def test_kronecker_pass_matches_the_list_pass(d):
    # Every power up to 40000 products in its largest step, and n = 1
    # always, on an all-zero, an all-(d - 1) and a random table.
    rng = random.Random(f"pass:{d}")
    width = lane_width(d)
    for name, matrix in pass_matrices(d, rng).items():
        m, k, n = len(matrix), len(matrix[0]), 1
        while n == 1 or max(m**n * k, m * k**n) <= 40000:
            for flat in ([0] * k**n, [d - 1] * k**n, [rng.randrange(d) for _ in range(k**n)]):
                lanes = kronecker_pass(matrix, _pack(flat, d), n, d)
                assert len(lanes) == m**n * width
                expected = reference_pass(matrix, flat, n, d)
                assert list(lane_values(lanes, d)) == expected, (name, n, flat[:3])
            n += 1


# MD5 of ``matrix`` stdout as the numpy builder printed it.
PINNED_BLOCKS = [
    (4, 6, "7a418d632375f6e2695c9a4c9a34f76b"),
    (9, 3, "14d43189b9e107e513f4e7a25f109ec1"),
]


@pytest.mark.parametrize("d,block,digest", PINNED_BLOCKS, ids=["d4-block6", "d9-block3"])
def test_pinned_matrix_output(capsys, d, block, digest):
    assert main(["matrix", "--d", str(d), "--block", str(block)]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


# Keys past ASCII, with quotes, escapes and control characters.
KEYS = ["k", "é", "ключ", "\U0001f600", 'a"b', "tab\t", "\x00", "", "back\\slash"]
SCALARS = [
    None, True, False, 0, -3, 2**65, -(2**65), 10**400, -(10**400), 1.5, -0.0, 0.1,
    1e300, -2.5e-8, float("inf"), float("-inf"), float("nan"), "text", "é\n", "\U0001f600",
]


def random_payload(rng, depth=0):
    """A JSON value with int lists of every kind the encoder tells apart."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:  # small non-negative ints: the shared table
        top = rng.choice([1, 2, 7, _TEXT_RANGE])
        return [rng.randrange(top) for _ in range(rng.randrange(1, 40))]
    if kind == 1:  # negative ints, ints past the table and past 2^64: the C path
        pool = [-1, -(2**70), _TEXT_RANGE, _TEXT_RANGE - 1, 2**64, 2**64 + 1, 10**30, 0]
        return [rng.choice(pool + [rng.randrange(-5, 5)]) for _ in range(rng.randrange(1, 12))]
    if kind == 2:  # bools among ints
        return [rng.choice([0, 1, True, False, 5]) for _ in range(rng.randrange(1, 8))]
    if kind == 3:
        return rng.choice([[], {}, (), [[]], {"": {}}, ([], ()), *SCALARS])
    if kind == 4:  # a tuple of small ints
        return tuple(rng.randrange(4) for _ in range(rng.randrange(1, 6)))
    if kind == 5:  # ints past the shared table, below the list's length or not
        size = rng.randrange(_TEXT_RANGE, 3 * _TEXT_RANGE)
        values = [rng.randrange(rng.choice([size, size + 1, 2 * size])) for _ in range(size)]
        return tuple(values) if rng.randrange(2) else values
    size = rng.randrange(0, 5)
    if kind in (6, 7):
        return {f"{rng.choice(KEYS)}{i}": random_payload(rng, depth + 1) for i in range(size)}
    items = [random_payload(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 8 else items


def test_encoder_matches_json_dumps_on_random_payloads():
    rng = random.Random("encode")
    with _any_int_digits():
        for _ in range(600):
            payload = {"value": random_payload(rng)}
            assert _encode(payload, "\n") == json.dumps(payload, indent=2)


def test_encoder_writes_a_6_to_the_7_table_as_json_dumps():
    rng = random.Random("encode-table")
    phases = [rng.randrange(6) for _ in range(6**7)]
    assert len(phases) == 279_936
    payload = {"d": 6, "n": 7, "phases": phases}
    assert _encode(payload, "\n") == json.dumps(payload, indent=2)


def test_flat_tables_are_fresh_and_writable():
    edge = MultiHyperedge(tuple(range(3)), (1, 2, 1))
    first = correction_exponents(edge, 1, 1, 3, 3)
    first[0] = 2
    assert correction_exponents(edge, 1, 1, 3, 3)[0] == 0
    assert correction_exponents(MultiHyperedge((1,), (1,)), 1, 1, 3, 2).flags.writeable


# A d=6 n=4 map with edges of every arity and exponents up to d - 1.
PINNED_MAP = {
    "d": 6,
    "n": 4,
    "edges": [
        {"vertices": [0], "exponents": [1], "weight": 5},
        {"vertices": [2], "exponents": [4], "weight": 3},
        {"vertices": [3], "exponents": [2], "weight": 1},
        {"vertices": [0, 1], "exponents": [1, 1], "weight": 2},
        {"vertices": [0, 3], "exponents": [5, 2], "weight": 4},
        {"vertices": [1, 2], "exponents": [3, 1], "weight": 1},
        {"vertices": [2, 3], "exponents": [2, 5], "weight": 5},
        {"vertices": [0, 1, 2], "exponents": [1, 2, 3], "weight": 3},
        {"vertices": [1, 2, 3], "exponents": [4, 1, 1], "weight": 2},
        {"vertices": [0, 1, 2, 3], "exponents": [2, 3, 1, 5], "weight": 1},
    ],
}

# SHA-256 of stdout as the earlier flat-index kernels printed it. The dense
# amplitudes come from numpy's complex exp, so a platform whose exp differs in
# the last bit also changes the --dense digest.
MAP = "map.json"
PINNED = [
    (
        ["build-state", "--graph", MAP],
        "e80e675a3ffcd923489e7df72353ff2a5483b858ded492746d39daa41df16c1f",
    ),
    (
        ["build-state", "--graph", MAP, "--dense"],
        "a22db5f2b2a716d8bc9589ab381416bf6e01cf380d8f0e057d7f0f32de1bfc42",
    ),
    (
        ["verify-stabilizers", "--graph", MAP],
        "d011d56572bee527665101a3a82fb58760111076b26d717a206f8242c69cf6b6",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED, ids=["phases", "dense", "verify"])
def test_pinned_map_output(tmp_path, capsys, argv, digest):
    path = tmp_path / MAP
    path.write_text(json.dumps(PINNED_MAP) + "\n")
    assert main([str(path) if arg == MAP else arg for arg in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_pinned_identity_check_output(capsys):
    assert main(["identity-check", "--d", "4", "--n", "2", "--exhaustive"]) == 1
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "c5d3c3d4287ebcc08f9cc5930b50c14bf0384a819918d72fc5c0012bff74c4d9"
    )
