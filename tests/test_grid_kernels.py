"""The (d,)*n grid kernels and the list report against a per-index
evaluator, the encoder against ``json.dumps``, and pinned CLI output.

The evaluator below reads every table entry off ``digits_of`` and ``pow``,
one index at a time, so it shares no array or list code with the kernels
under test.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from quditgraphs.cli import _TEXT_RANGE, _any_int_digits, _encode, main
from quditgraphs.diagonals import VertexOutOfRange, conjugation_report, edge_reports
from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap
from quditgraphs.stabilizers import _correction_grid, apply_generator, correction_exponents, verify
from quditgraphs.states import _add_edge_grids, build_state, digits_of, monomial_grid

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
        for edge in edge_map.edges():
            monomial = np.broadcast_to(monomial_grid(d, n, edge), (d,) * n)
            assert monomial.reshape(-1).tolist() == [monomial_at(x, edge, d) for x in every_digit]
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


class PassCounter(np.ndarray):
    """A grid that records the shape of every array added into it in place."""

    def __iadd__(self, other):
        self.added.append((1,) * (self.ndim - np.ndim(other)) + np.shape(other))
        return super().__iadd__(other)


def smallest_missing(support):
    return min(set(range(len(support) + 1)) - set(support))


@pytest.mark.parametrize("d,n", CELLS)
def test_edge_grids_add_as_one_broadcast_per_term(d, n):
    rng = random.Random(f"sum:{d}:{n}")
    for edge_map in grid_maps(rng, d, n):
        k = rng.randrange(n)
        for terms in (
            [(e.vertices, w * monomial_grid(d, n, e) % d) for e, w in edge_map.items()],
            [
                (e.vertices, _correction_grid(e, w, k, d, n))
                for e, w in edge_map.items()
                if k in e.vertices
            ],
        ):
            expected = np.zeros((d,) * n, dtype=np.int64)
            for _, term in terms:
                expected = expected + term
            grid = np.zeros((d,) * n, dtype=np.int64).view(PassCounter)
            grid.added = []
            _add_edge_grids(grid, iter(terms))
            assert np.array_equal(grid, expected)
            # One pass per smallest missing vertex, each group's grid of
            # extent 1 first on that vertex's axis (none for the full support).
            groups = sorted({smallest_missing(support) for support, _ in terms})
            first_unit_axis = [
                next((v for v, extent in enumerate(shape) if extent == 1), n)
                for shape in grid.added
            ]
            assert sorted(first_unit_axis) == groups


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
    for edge in random_map(rng, d, n).edges():
        # A negative power, one in Z_d and one past it.
        for power in (rng.randrange(-2 * d, 0), rng.randrange(d), rng.randrange(d, 3 * d)):
            for k in edge.vertices:
                report = conjugation_report(edge, power, k, d, n)
                _check_report(report, edge, power, k, d, every_digit)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 3), (6, 2)])
def test_edge_reports_run_every_power_then_every_target(d, n):
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    rng = random.Random(f"edge-reports:{d}:{n}")
    for edge in random_map(rng, d, n, count=4).edges():
        reports = list(edge_reports(edge, d, n))
        assert [(r.power, r.vertex) for r in reports] == [
            (m, k) for m in range(d) for k in edge.vertices
        ]
        for report in reports:
            assert report == conjugation_report(edge, report.power, report.vertex, d, n)
            _check_report(report, edge, report.power, report.vertex, d, every_digit)


# Each bad (edge, power, k, d, n) with the exception type and text that the
# numpy tables gave.
EDGE = MultiHyperedge((0, 1), (1, 2))
FAR_EDGE = MultiHyperedge((0, 4), (1, 2))
BAD_REPORTS = [
    ((EDGE, 1, 2, 3, 2), ValueError, f"vertex 2 not in edge {EDGE}"),
    ((FAR_EDGE, 1, 4, 3, 2), VertexOutOfRange, "vertex 4 out of range [0, 2)"),
    ((FAR_EDGE, 1, 4, 3, -1), VertexOutOfRange, "vertex 4 out of range [0, -1)"),
    ((EDGE, 1, 0, 3, 0), VertexOutOfRange, "vertex 0 out of range [0, 0)"),
    ((FAR_EDGE, 1, 0, 3, 2), VertexOutOfRange,
     "edge MultiHyperedge(vertices=(4,), exponents=(2,)) references a vertex >= 2"),
    ((EDGE, 1, 0, 0, 2), ZeroDivisionError, "integer modulo by zero"),
    ((EDGE, 1, 1, 0, 2), ZeroDivisionError, "integer modulo by zero"),
    ((EDGE, 1, 0, -2, 2), ValueError, "all elements of broadcast shape must be non-negative"),
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


def random_payload(rng, depth=0):
    """A JSON value with int lists of every kind the encoder tells apart."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:  # small non-negative ints: the table path
        top = rng.choice([1, 2, 7, _TEXT_RANGE])
        return [rng.randrange(top) for _ in range(rng.randrange(1, 40))]
    if kind == 1:  # negative ints, ints past the table and past 2^64: the C path
        pool = [-1, -(2**70), _TEXT_RANGE, _TEXT_RANGE - 1, 2**64, 2**64 + 1, 10**30, 0]
        return [rng.choice(pool + [rng.randrange(-5, 5)]) for _ in range(rng.randrange(1, 12))]
    if kind == 2:  # bools among ints
        return [rng.choice([0, 1, True, False, 5]) for _ in range(rng.randrange(1, 8))]
    if kind == 3:
        return rng.choice([[], {}, (), None, True, 0, -3, 2**65, 1.5, "text", "é\n"])
    if kind == 4:  # a tuple of small ints
        return tuple(rng.randrange(4) for _ in range(rng.randrange(1, 6)))
    size = rng.randrange(0, 5)
    if kind in (5, 6):
        return {f"k{i}": random_payload(rng, depth + 1) for i in range(size)}
    items = [random_payload(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 7 else items


def test_encoder_matches_json_dumps_on_random_payloads():
    rng = random.Random("encode")
    with _any_int_digits():
        for _ in range(300):
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
