"""The (d,)*n grid kernels against a per-index evaluator, and pinned CLI output.

The evaluator below reads every table entry off ``digits_of`` and ``pow``,
one index at a time, so it shares no array code with the kernels under test.
"""

import hashlib
import json
import random

import pytest

from quditgraphs.cli import main
from quditgraphs.graphs import MultiHyperedge, WeightedEdgeMap
from quditgraphs.stabilizers import (
    apply_generator,
    correction_exponents,
    printed_exponents,
    verify,
)
from quditgraphs.states import build_state, digits_of, monomial_table

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


@pytest.mark.parametrize("d,n", CELLS)
def test_grid_kernels_match_per_index_evaluation(d, n):
    rng = random.Random(f"grid:{d}:{n}")
    every_digit = [digits_of(i, d, n) for i in range(d**n)]
    for _ in range(2):
        edge_map = random_map(rng, d, n)
        state = build_state(edge_map)
        assert state.table.tolist() == [phase_at(x, edge_map) for x in every_digit]
        for edge in edge_map.edges():
            assert monomial_table(d, n, edge).tolist() == [
                monomial_at(x, edge, d) for x in every_digit
            ]
            power = rng.randrange(-d, 2 * d)
            for k in edge.vertices:
                assert correction_exponents(edge, power, k, d, n).tolist() == [
                    correction_at(x, edge, power, k, d) for x in every_digit
                ]
                assert printed_exponents(edge, power, k, d, n).tolist() == [
                    printed_at(x, edge, power, k, d) for x in every_digit
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


def test_flat_tables_are_fresh_and_writable():
    edge = MultiHyperedge(tuple(range(3)), (1, 2, 1))
    first = monomial_table(3, 3, edge)
    first[0] = 2
    assert monomial_table(3, 3, edge)[0] == 0
    assert printed_exponents(MultiHyperedge((1,), (1,)), 1, 1, 3, 2).flags.writeable


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
